"""Memory-regression guards for the bounded campaign path.

The predictor's ``history_window`` ring buffer is what keeps campaign memory
at O(window · N · slots) instead of O(days · N · slots): these tests pin the
footprint directly (buffer bytes must not grow once the ring is full) and
via tracemalloc (running a campaign for 4× the configured window must not
grow the predictor's traced allocations beyond one day's matrix of slack).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.api import EngineConfig, campaign
from repro.experiments.campaign_bench import CONDITION_CYCLE, build_campaign_planner
from repro.grid.demand import PopulationDemand
from repro.grid.prediction import ConsumptionPredictor, PredictionModel


NUM_HOUSEHOLDS = 40
SLOTS = 24
WINDOW = 3


def _day(seed: int, n: int = NUM_HOUSEHOLDS, slots: int = SLOTS) -> PopulationDemand:
    rng = np.random.default_rng(seed)
    return PopulationDemand(
        household_ids=[f"h{i}" for i in range(n)],
        matrix=rng.uniform(0.0, 5.0, size=(n, slots)),
    )


class TestRingBufferBound:
    def test_buffer_bytes_constant_beyond_the_window(self):
        predictor = ConsumptionPredictor(history_window=WINDOW)
        sizes = []
        for day in range(4 * WINDOW):
            predictor.observe(_day(day))
            sizes.append(predictor.history_nbytes())
        expected = WINDOW * NUM_HOUSEHOLDS * SLOTS * 8
        assert sizes[-1] == expected
        # Once the ring fills (day index WINDOW-1) the footprint never moves.
        assert set(sizes[WINDOW - 1 :]) == {expected}
        assert predictor.history_length == WINDOW
        assert predictor.observed_days == 4 * WINDOW

    def test_unbounded_predictor_grows(self):
        predictor = ConsumptionPredictor()
        for day in range(4 * WINDOW):
            predictor.observe(_day(day))
        assert predictor.history_length == 4 * WINDOW
        assert predictor.history_nbytes() >= 4 * WINDOW * NUM_HOUSEHOLDS * SLOTS * 8

    def test_traced_predictor_memory_flat_at_4x_window(self):
        predictor = ConsumptionPredictor(history_window=WINDOW)
        days = [_day(day) for day in range(4 * WINDOW)]
        # Fill the ring first, then trace: every further observation must
        # reuse the ring's storage rather than allocate.
        predictor.observe_many(days[:WINDOW])
        one_day_bytes = NUM_HOUSEHOLDS * SLOTS * 8
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            predictor.observe_many(days[WINDOW:])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Generous slack (one day matrix + bookkeeping) — the point is that
        # 3 windows' worth of observations do not add 3 windows of storage.
        assert current - baseline < 2 * one_day_bytes
        assert peak - baseline < 4 * one_day_bytes


class TestStreamedAverage:
    """``predict_columnar`` accumulates the ring in place of ``np.average``."""

    @pytest.mark.parametrize(
        "model, window, days",
        [
            (PredictionModel.MEAN, None, 11),
            (PredictionModel.MEAN, 4, 11),
            (PredictionModel.EXPONENTIAL_SMOOTHING, None, 11),
            (PredictionModel.EXPONENTIAL_SMOOTHING, 4, 11),
        ],
        ids=["mean_unbounded", "mean_wrapped_ring", "smoothing_unbounded",
             "smoothing_wrapped_ring"],
    )
    def test_bit_identical_to_np_average(self, model, window, days):
        predictor = ConsumptionPredictor(model=model, history_window=window)
        for day in range(days):
            predictor.observe(_day(day))
            expected = np.average(
                predictor._chronological_history(), axis=0,
                weights=predictor._weights(),
            )
            matrix = predictor.predict_columnar().matrix
            assert matrix.tobytes() == expected.tobytes()
        if window is not None:
            assert predictor._start != 0  # the ring really wrapped

    @pytest.mark.perf_smoke
    def test_prediction_allocates_no_history_copy(self):
        n, window = 20_000, 7
        predictor = ConsumptionPredictor(history_window=window)
        for day in range(window + 2):
            predictor.observe(_day(day, n=n))
        one_day_bytes = n * SLOTS * 8
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            predictor.predict_columnar()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result and one scratch row; np.average over the unwrapped ring
        # allocated 2 x window day matrices.
        assert peak - baseline < 3 * one_day_bytes


class TestCampaignFootprint:
    @pytest.mark.perf_smoke
    def test_campaign_at_4x_window_keeps_predictor_bounded(self):
        planner = build_campaign_planner(NUM_HOUSEHOLDS, seed=7)
        result = campaign(
            planner,
            4 * WINDOW,
            conditions=CONDITION_CYCLE,
            config=EngineConfig(materialise="lazy", history_window=WINDOW),
            warmup_days=2,
            seed=7,
        )
        assert result.num_days == 4 * WINDOW
        assert result.metadata["history_window"] == WINDOW
        predictor = planner.predictor
        # Warm-up days + campaign days all flowed through the ring …
        assert predictor.observed_days == 2 + 4 * WINDOW
        # … but only the window is retained, at its fixed footprint.
        assert predictor.history_length == WINDOW
        assert predictor.history_nbytes() == WINDOW * NUM_HOUSEHOLDS * SLOTS * 8
