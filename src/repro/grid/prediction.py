"""Consumption prediction: the Utility Agent's statistical model.

"To predict the balance between consumption and production, available
information is analysed and predictions are calculated on the basis of
statistical models" (Section 5.1.2).  The :class:`ConsumptionPredictor`
implements this: it is trained on historical daily demand realisations
(optionally weather-tagged) and predicts the aggregate and per-household
demand for an upcoming day, with a configurable statistical model.

The predictor is *columnar*: observed days are appended to a
``(days, num_households, slots)`` history buffer (incremental — no
full-history refit per observed day), and a prediction is one weighted
reduction over that buffer.  :meth:`ConsumptionPredictor.predict_columnar`
exposes the array-native result (:class:`FleetPrediction`, per-household
*vectors* instead of ``dict[str, float]``); :meth:`ConsumptionPredictor.predict`
keeps the historical per-household ``LoadProfile`` mapping, materialised from
the same columnar core, so both views are bit-identical.

**Bounded memory.**  With ``history_window=None`` (the default) the buffer
grows by doubling and the predictor remembers every observed day — the
historical behaviour, O(days · N · slots) memory.  With
``history_window=w`` the buffer is a fixed ``(w, N, slots)`` *ring*: the
oldest day is overwritten once ``w`` days are live, so a campaign of any
length holds O(w · N · slots) predictor memory.  A windowed predictor that
has observed days ``d₁ … dₙ`` is bit-identical to a fresh unbounded
predictor fed only the last ``min(n, w)`` of those days — the ring is a
memory layout, never a behaviour change (``tests/test_campaign_properties
.py`` pins this property).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.core.modes import validate_history_window
from repro.grid.demand import PopulationDemand
from repro.grid.load_profile import LoadProfile, matrix_average_in
from repro.grid.weather import WeatherSample
from repro.runtime.clock import TimeInterval


class PredictionModel(Enum):
    """Statistical model used for prediction."""

    #: Plain mean of historical profiles.
    MEAN = "mean"
    #: Exponentially weighted mean (recent days matter more).
    EXPONENTIAL_SMOOTHING = "exponential_smoothing"
    #: Mean of historical days re-scaled by the heating factor of the
    #: forecast weather relative to the historical average heating factor.
    WEATHER_ADJUSTED = "weather_adjusted"


@dataclass(frozen=True)
class PredictionResult:
    """A prediction of one day's demand (object view)."""

    aggregate: LoadProfile
    per_household: dict[str, LoadProfile]
    model: PredictionModel

    def household_prediction_in(self, interval: TimeInterval) -> dict[str, float]:
        """Predicted average demand (kW) per household during an interval."""
        return {
            household_id: profile.average_in(interval)
            for household_id, profile in self.per_household.items()
        }

    def aggregate_in(self, interval: TimeInterval) -> float:
        """Predicted average aggregate demand (kW) during an interval."""
        return self.aggregate.average_in(interval)


@dataclass(frozen=True)
class FleetPrediction:
    """A prediction of one day's demand (columnar view).

    ``matrix`` is ``(num_households, slots)`` with rows in ``household_ids``
    order; row ``i`` carries the same values as the per-household
    :class:`LoadProfile` of the object view.
    """

    household_ids: tuple[str, ...]
    matrix: np.ndarray
    aggregate: LoadProfile
    model: PredictionModel

    def average_in(self, interval: TimeInterval) -> np.ndarray:
        """Predicted average demand (kW) per household during an interval.

        The array-native counterpart of
        :meth:`PredictionResult.household_prediction_in`: one vector in
        ``household_ids`` order, bit-identical per household.
        """
        return matrix_average_in(self.matrix, interval)

    def aggregate_in(self, interval: TimeInterval) -> float:
        """Predicted average aggregate demand (kW) during an interval."""
        return self.aggregate.average_in(interval)

    def as_result(self) -> PredictionResult:
        """Materialise the object view (per-household ``LoadProfile`` mapping)."""
        per_household = {
            household_id: LoadProfile.from_array(row)
            for household_id, row in zip(self.household_ids, self.matrix)
        }
        return PredictionResult(self.aggregate, per_household, self.model)


class ConsumptionPredictor:
    """Predicts per-household and aggregate demand from history."""

    def __init__(
        self,
        model: PredictionModel = PredictionModel.MEAN,
        smoothing_factor: float = 0.4,
        history_window: Optional[int] = None,
    ) -> None:
        if not 0.0 < smoothing_factor <= 1.0:
            raise ValueError("smoothing factor must be in (0, 1]")
        self.model = model
        self.smoothing_factor = smoothing_factor
        self.history_window = validate_history_window(history_window)
        self._household_ids: Optional[list[str]] = None
        self._id_set: Optional[frozenset[str]] = None
        #: (capacity, N, S) history buffer.  Unbounded: rows [0, _num_days)
        #: are live and the buffer doubles when full.  Windowed: a fixed-size
        #: ring — the oldest live row sits at _start and writes wrap around.
        self._buffer: Optional[np.ndarray] = None
        self._num_days = 0
        self._start = 0
        self._total_days = 0
        self._weathers: list[Optional[WeatherSample]] = []

    # -- training -----------------------------------------------------------

    def observe(self, demand: PopulationDemand) -> None:
        """Record one realised day of demand (incremental, no refit)."""
        matrix = demand.matrix()
        day_ids = demand.household_ids
        if self._household_ids is None:
            self._household_ids = day_ids
            self._id_set = frozenset(day_ids)
        elif day_ids == self._household_ids:
            # The same households in the same order (a fleet's every day):
            # rows already align, and comparing the shared id strings is a
            # pointer walk, so no id set is built.
            pass
        elif set(day_ids) != self._id_set:
            raise ValueError("all observed days must cover the same households")
        else:
            # Buffer rows are positional; realign a day whose profiles come in
            # a different id order (the object path looked profiles up by id).
            position = {household_id: row for row, household_id in enumerate(day_ids)}
            matrix = matrix[[position[household_id] for household_id in self._household_ids]]
        if self._buffer is None:
            capacity = self.history_window if self.history_window is not None else 8
            self._buffer = np.empty((capacity,) + matrix.shape)
        elif matrix.shape != self._buffer.shape[1:]:
            raise ValueError("all observed days must share one demand resolution")
        elif self._num_days == self._buffer.shape[0] and self.history_window is None:
            grown = np.empty((2 * self._buffer.shape[0],) + self._buffer.shape[1:])
            grown[: self._num_days] = self._buffer[: self._num_days]
            self._buffer = grown
        capacity = self._buffer.shape[0]
        if self._num_days < capacity:
            self._buffer[(self._start + self._num_days) % capacity] = matrix
            self._num_days += 1
        else:
            # Ring is full: the new day overwrites the oldest one.
            self._buffer[self._start] = matrix
            self._start = (self._start + 1) % capacity
            self._weathers.pop(0)
        self._total_days += 1
        self._weathers.append(demand.weather)

    def observe_many(self, demands: Sequence[PopulationDemand]) -> None:
        for demand in demands:
            self.observe(demand)

    @property
    def history_length(self) -> int:
        """Days currently *retained* (capped at ``history_window`` when set)."""
        return self._num_days

    @property
    def observed_days(self) -> int:
        """Total days ever observed (monotonic, unaffected by the window)."""
        return self._total_days

    def history_nbytes(self) -> int:
        """Bytes held by the history buffer (memory-regression guards)."""
        return self._buffer.nbytes if self._buffer is not None else 0

    def set_history_window(self, history_window: Optional[int]) -> None:
        """Re-bound the observation window, dropping the oldest days if needed.

        Shrinking keeps the most recent ``history_window`` days; widening (or
        ``None`` for unbounded) keeps everything currently retained.  Future
        predictions behave exactly as if the retained days were the whole
        history.
        """
        window = validate_history_window(history_window)
        if window == self.history_window and self._buffer is not None:
            return
        self.history_window = window
        if self._buffer is None:
            return
        live = np.array(self._chronological_history())
        if window is not None and live.shape[0] > window:
            live = live[-window:]
            self._weathers = self._weathers[-window:]
        capacity = window if window is not None else max(8, live.shape[0])
        rebuilt = np.empty((capacity,) + self._buffer.shape[1:])
        rebuilt[: live.shape[0]] = live
        self._buffer = rebuilt
        self._num_days = live.shape[0]
        self._start = 0

    def _chronological_history(self) -> np.ndarray:
        """The live history rows, oldest first (unwraps the ring)."""
        if self._start == 0:
            return self._buffer[: self._num_days]
        capacity = self._buffer.shape[0]
        indices = (self._start + np.arange(self._num_days)) % capacity
        return self._buffer[indices]

    # -- prediction -----------------------------------------------------------

    def predict_columnar(
        self, forecast_weather: Optional[WeatherSample] = None
    ) -> FleetPrediction:
        """Predict the next day's demand as per-household arrays.

        Raises
        ------
        ValueError
            If no history has been observed yet.
        """
        if self._num_days == 0:
            raise ValueError("cannot predict without any observed history")
        weights = self._weights()
        capacity = self._buffer.shape[0]
        rows = [(self._start + offset) % capacity for offset in range(self._num_days)]
        # np.average(history, axis=0, weights=weights), streamed: its axis-0
        # reduction adds the weighted days oldest first, and so does this loop,
        # so the result is bit-identical without np.average's two (D, N, S)
        # temporaries (the unwrapped history and its weighted copy).
        matrix = self._buffer[rows[0]] * weights[0]
        term = np.empty_like(matrix)
        for row, weight in zip(rows[1:], weights[1:]):
            np.multiply(self._buffer[row], weight, out=term)
            matrix += term
        matrix /= weights.sum()
        adjustment = self._weather_adjustment(forecast_weather)
        if adjustment != 1.0:
            matrix *= adjustment
        matrix.setflags(write=False)
        aggregate = LoadProfile.from_array(matrix.sum(axis=0))
        return FleetPrediction(
            household_ids=tuple(self._household_ids),
            matrix=matrix,
            aggregate=aggregate,
            model=self.model,
        )

    def predict(self, forecast_weather: Optional[WeatherSample] = None) -> PredictionResult:
        """Predict the next day's demand (object view of :meth:`predict_columnar`).

        Raises
        ------
        ValueError
            If no history has been observed yet.
        """
        return self.predict_columnar(forecast_weather).as_result()

    def _weights(self) -> np.ndarray:
        n = self._num_days
        if self.model is PredictionModel.EXPONENTIAL_SMOOTHING and n > 1:
            alpha = self.smoothing_factor
            weights = np.array([(1 - alpha) ** (n - 1 - i) for i in range(n)])
            return weights / weights.sum()
        return np.full(n, 1.0 / n)

    def _weather_adjustment(self, forecast: Optional[WeatherSample]) -> float:
        if self.model is not PredictionModel.WEATHER_ADJUSTED or forecast is None:
            return 1.0
        historical_factors = [
            weather.heating_factor for weather in self._weathers if weather is not None
        ]
        if not historical_factors:
            return 1.0
        mean_factor = float(np.mean(historical_factors))
        if mean_factor <= 0:
            return 1.0
        # Heating is roughly half of winter domestic load; scale that share.
        heating_share = 0.5
        ratio = forecast.heating_factor / mean_factor
        return (1.0 - heating_share) + heating_share * ratio

    # -- error metrics -----------------------------------------------------------

    def mean_absolute_error(
        self, prediction: PredictionResult, actual: PopulationDemand
    ) -> float:
        """Mean absolute error of the aggregate prediction (kW per slot)."""
        predicted = prediction.aggregate.as_array()
        realised = actual.aggregate.as_array()
        if predicted.shape != realised.shape:
            raise ValueError("prediction and actual have different resolutions")
        return float(np.mean(np.abs(predicted - realised)))

    def mean_absolute_percentage_error(
        self, prediction: PredictionResult, actual: PopulationDemand
    ) -> float:
        """MAPE of the aggregate prediction (fraction, not percent)."""
        predicted = prediction.aggregate.as_array()
        realised = actual.aggregate.as_array()
        if predicted.shape != realised.shape:
            raise ValueError("prediction and actual have different resolutions")
        mask = realised > 0
        if not mask.any():
            return 0.0
        return float(np.mean(np.abs(predicted[mask] - realised[mask]) / realised[mask]))
