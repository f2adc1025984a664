"""Campaign determinism and fleet/scalar planning equivalence.

Two contracts from the columnar planning pipeline:

* **Backend determinism** — at a fixed seed, a campaign produces identical
  ``CampaignResult.rows()`` whichever engine backend runs the negotiations
  (``"object"`` / ``"vectorized"`` / ``"sharded"`` / ``"auto"``): the
  backend choice changes wall-clock, never outcomes.
* **Planning equivalence** — the columnar fleet path and the scalar
  per-household path build bit-identical plans: same predicted uses, same
  requirement tables per household, hence identical campaigns.

A small population runs in tier-1; the 10k-household planning equivalence
runs in tier-2.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, UnknownBackendError, campaign
from repro.core.planning import DayAheadPlanner
from repro.experiments.campaign_bench import (
    CONDITION_CYCLE,
    build_campaign_planner,
)
from repro.grid.weather import WeatherCondition, WeatherSample


def small_planner(planning: str = "columnar") -> DayAheadPlanner:
    return build_campaign_planner(30, seed=7, planning=planning)


def run_small_campaign(backend: str, planning: str = "columnar", **config_fields):
    return campaign(
        small_planner(),
        6,
        conditions=CONDITION_CYCLE,
        backend=backend,
        config=EngineConfig(planning=planning, **config_fields),
        warmup_days=2,
        seed=7,
    )


class TestCampaignBackendDeterminism:
    def test_rows_identical_across_backends(self):
        # The oracle is pinned by name (object backend, eager hand-off), so
        # it stays the oracle whatever the defaults are.
        reference = run_small_campaign("object", materialise="eager")
        assert reference.days_negotiated >= 1
        for backend in ("vectorized", "auto"):
            other = run_small_campaign(backend)
            assert other.rows() == reference.rows(), (
                f"backend {backend!r} diverged from the object path"
            )
        object_rounds = run_small_campaign(
            "vectorized", materialise="eager", rounds="object"
        )
        assert object_rounds.rows() == reference.rows()
        # The sharded runtime joins the matrix at campaign level, requested
        # by name; auto never picks it, with or without workers to spare.
        sharded = run_small_campaign("sharded", shards=2)
        assert sharded.rows() == reference.rows()
        assert all(
            day.backend == "sharded" for day in sharded.days if day.negotiated
        )
        auto_with_workers = run_small_campaign("auto", shards=2)
        assert auto_with_workers.rows() == reference.rows()
        assert all(
            day.backend == "vectorized"
            for day in auto_with_workers.days
            if day.negotiated
        )

    def test_backends_are_recorded_per_day(self):
        result = run_small_campaign("auto")
        assert result.metadata["backend"] == "auto"
        assert result.metadata["planning"] == "columnar"
        assert len(result.backends) == result.num_days
        for day in result.days:
            if day.negotiated:
                assert day.backend in ("object", "vectorized", "sharded")
            else:
                assert day.backend is None
        # The backend never leaks into the rows: they must stay comparable
        # across backends.
        assert all("backend" not in row for row in result.rows())

    def test_phase_timers_are_populated(self):
        result = run_small_campaign("auto")
        assert result.planning_seconds > 0
        assert result.negotiation_seconds > 0

    @pytest.mark.parametrize("backend", ["vectorised", "async"])
    def test_unknown_backend_fails_before_any_day(self, backend):
        # A typo'd backend name fails at construction, like every other mode
        # knob — not as a "failed_day" record after the warm-up ran.
        planner = small_planner()
        with pytest.raises(UnknownBackendError, match=backend):
            campaign(planner, 4, conditions=CONDITION_CYCLE, backend=backend)
        assert planner.predictor.observed_days == 0


class TestPlanningEquivalence:
    def test_campaign_rows_identical_across_planning_modes(self):
        columnar = run_small_campaign("auto", planning="columnar")
        scalar = run_small_campaign("auto", planning="scalar")
        assert scalar.metadata["planning"] == "scalar"
        assert columnar.rows() == scalar.rows()

    def test_campaign_without_config_respects_planner_mode(self):
        result = campaign(
            small_planner("scalar"), 3,
            conditions=CONDITION_CYCLE, warmup_days=2, seed=7,
        )
        assert result.metadata["planning"] == "scalar"

    def test_planned_scenarios_bit_identical(self):
        planner = small_planner()
        mild = WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)
        cold = WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)
        planner.observe_days([mild, mild])
        columnar = planner.plan(cold, planning="columnar")
        scalar = planner.plan(cold, planning="scalar")
        assert columnar is not None and scalar is not None
        assert columnar.population.normal_use == scalar.population.normal_use
        assert columnar.population.interval == scalar.population.interval
        assert len(columnar.population.specs) == len(scalar.population.specs)
        for fleet_spec, scalar_spec in zip(
            columnar.population.specs, scalar.population.specs
        ):
            assert fleet_spec.customer_id == scalar_spec.customer_id
            assert fleet_spec.predicted_use == scalar_spec.predicted_use
            assert (
                fleet_spec.requirements.requirements
                == scalar_spec.requirements.requirements
            )
            assert (
                fleet_spec.requirements.max_feasible_cutdown
                == scalar_spec.requirements.max_feasible_cutdown
            )

    def test_prediction_is_memoised_per_forecast(self):
        planner = small_planner()
        mild = WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)
        cold = WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)
        planner.observe_day(mild)
        first = planner._predict(cold)
        # Same forecast, same history: the cached prediction object is reused
        # (predicted_peak_interval + plan cost one predictor run per day).
        assert planner._predict(cold) is first
        assert planner.predicted_peak_interval(cold) is not None
        assert planner._predict(cold) is first
        # New history invalidates the memo.
        planner.observe_day(mild)
        assert planner._predict(cold) is not first

    def test_synthetic_population_columnar_equals_scalar(self):
        from repro.core.scenario import synthetic_scenario

        columnar = synthetic_scenario(num_households=40, planning="columnar")
        scalar = synthetic_scenario(num_households=40, planning="scalar")
        assert columnar.population.normal_use == scalar.population.normal_use
        for fleet_spec, scalar_spec in zip(
            columnar.population.specs, scalar.population.specs
        ):
            assert fleet_spec.predicted_use == scalar_spec.predicted_use
            assert (
                fleet_spec.requirements.requirements
                == scalar_spec.requirements.requirements
            )


class TestLazyMaterialisationEquivalence:
    """Acceptance criterion: lazy-vs-eager rows bit-identical at 300 (tier-1)."""

    def test_lazy_rows_bit_identical_at_300(self):
        def run(materialise: str, **fields):
            return campaign(
                build_campaign_planner(300, seed=7),
                6,
                conditions=CONDITION_CYCLE,
                config=EngineConfig(materialise=materialise, **fields),
                warmup_days=2,
                seed=7,
            )

        eager = run("eager")
        assert eager.days_negotiated >= 1
        lazy = run("lazy")
        assert lazy.metadata["materialise"] == "lazy"
        assert lazy.rows() == eager.rows()
        # Bounded history and dropped bid retention are orthogonal to the
        # hand-off: with the *same* window both modes still agree bit for bit.
        eager_windowed = run("eager", history_window=4)
        lazy_windowed = run("lazy", history_window=4, retain_message_log=False)
        assert lazy_windowed.metadata["history_window"] == 4
        assert lazy_windowed.rows() == eager_windowed.rows()

    def test_lazy_campaign_days_never_materialise(self):
        planner = build_campaign_planner(30, seed=7)
        seen: list[bool] = []
        original = DayAheadPlanner.plan

        def spying_plan(self, *args, **kwargs):
            scenario = original(self, *args, **kwargs)
            if scenario is not None:
                seen.append(scenario.population)
            return scenario

        DayAheadPlanner.plan = spying_plan
        try:
            result = campaign(
                planner, 6,
                conditions=CONDITION_CYCLE,
                config=EngineConfig(materialise="lazy"),
                warmup_days=2, seed=7,
            )
        finally:
            DayAheadPlanner.plan = original
        assert result.days_negotiated >= 1
        assert seen, "no day was planned"
        assert all(population.materialised is False for population in seen), (
            "a lazy campaign day materialised its specs"
        )

    def test_shrinking_the_window_invalidates_the_prediction_memo(self):
        """Re-bounding the window must drop the planner's memoised prediction:
        the next plan has to see exactly the windowed history, not a stale
        full-history prediction cached under an unchanged observed-day count."""
        planner = small_planner()
        mild = WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)
        cold = WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)
        planner.observe_days([mild] * 5)
        stale = planner._predict(cold)
        planner.set_history_window(2)
        fresh = planner._predict(cold)
        assert fresh is not stale
        oracle = small_planner()
        oracle.observe_days([mild] * 5)
        oracle.predictor.set_history_window(2)
        assert fresh.matrix.tolist() == oracle.predictor.predict_columnar(cold).matrix.tolist()

    def test_window_with_custom_predictor_fails_clearly(self):
        class MinimalPredictor:
            history_length = 0

            def observe_many(self, demands):
                pass

        planner = build_campaign_planner(30, seed=7)
        planner.predictor = MinimalPredictor()
        with pytest.raises(ValueError, match="MinimalPredictor"):
            campaign(
                planner, 2,
                config=EngineConfig(history_window=3),
                warmup_days=1, seed=7,
            )

    def test_campaign_metadata_records_the_knobs(self):
        result = run_small_campaign("auto", materialise="lazy", history_window=5)
        assert result.metadata["materialise"] == "lazy"
        assert result.metadata["history_window"] == 5
        oracle = run_small_campaign("auto", materialise="eager", rounds="object")
        assert oracle.metadata["materialise"] == "eager"
        assert oracle.metadata["rounds"] == "object"
        default = run_small_campaign("auto")
        assert default.metadata["materialise"] == "lazy"
        assert default.metadata["rounds"] == "array"
        assert default.metadata["history_window"] is None
        assert default.rows() == oracle.rows()
        # The scalar planning path always materialises, whatever was asked.
        scalar = run_small_campaign("auto", planning="scalar")
        assert scalar.metadata["materialise"] == "eager"

    def test_campaign_metadata_records_the_rounds_that_ran(self):
        # The object backend runs object rounds whatever ``rounds`` says.
        on_object = run_small_campaign("object", rounds="array")
        assert on_object.metadata["rounds"] == "object"


class TestColumnarAccountingGuards:
    def test_divergent_customer_ids_fall_back_to_scalar_accounting(self):
        """Populations whose customer ids differ from their household ids must
        not ride the fleet accounting path (outcomes are keyed by customer id,
        the fleet by household id)."""
        from repro.agents.population import CustomerPopulation, CustomerSpec
        from repro.core.scenario import synthetic_scenario
        from repro.core.system import LoadBalancingSystem

        base = synthetic_scenario(num_households=20)
        renamed = CustomerPopulation(
            specs=[
                CustomerSpec(
                    customer_id=f"c{i:03d}",
                    predicted_use=spec.predicted_use,
                    allowed_use=spec.allowed_use,
                    requirements=spec.requirements,
                    household=spec.household,
                )
                for i, spec in enumerate(base.population.specs)
            ],
            normal_use=base.population.normal_use,
            interval=base.population.interval,
            max_allowed_overuse=base.population.max_allowed_overuse,
            households=base.population.households,
            weather=base.population.weather,
        )
        base.population.fleet = None
        renamed_scenario = type(base)(
            name="renamed", population=renamed, method=base.method,
            weather=base.weather,
        )
        system = LoadBalancingSystem(renamed_scenario, seed=0)
        assert system._accounting_fleet() is None
        outcome = system.run(backend="vectorized")
        # The awarded cut-downs must actually be applied.
        assert outcome.negotiated
        assert outcome.peak_after_kw < outcome.peak_before_kw

    def test_matching_ids_produce_identical_accounting_either_path(self):
        from repro.core.scenario import synthetic_scenario
        from repro.core.system import LoadBalancingSystem

        scenario = synthetic_scenario(num_households=20)
        fleet_result = LoadBalancingSystem(scenario, seed=0).run(backend="vectorized")
        scalar_result = LoadBalancingSystem(scenario, seed=0)._run_scalar(
            backend="vectorized"
        )
        assert fleet_result.peak_after_kw == scalar_result.peak_after_kw
        assert fleet_result.production_cost_after == scalar_result.production_cost_after
        assert fleet_result.reward_paid == scalar_result.reward_paid


@pytest.mark.tier2
class TestCampaignBackendMatrixAtScale:
    """Three-way backend matrix at campaign level (tier-2 extension).

    The single-negotiation three-way matrix lives in ``test_api.py`` /
    ``test_sharded_session.py``; this runs the whole observe → predict →
    negotiate → account loop per backend — the sharded runtime requested by
    name — and requires identical campaign rows.
    """

    def run_matrix_campaign(self, backend: str, **config_fields):
        return campaign(
            build_campaign_planner(800, seed=7),
            5,
            conditions=CONDITION_CYCLE,
            backend=backend,
            config=EngineConfig(**config_fields),
            warmup_days=2,
            seed=7,
        )

    def test_campaign_rows_identical_across_all_backends(self):
        reference = self.run_matrix_campaign("object", materialise="eager")
        assert reference.days_negotiated >= 1
        explicit_sharded = self.run_matrix_campaign("sharded", shards=4)
        assert explicit_sharded.rows() == reference.rows()
        assert all(
            day.backend == "sharded"
            for day in explicit_sharded.days
            if day.negotiated
        )
        for backend, fields in (
            ("vectorized", {}),
            ("vectorized", {"rounds": "object", "materialise": "eager"}),
            ("auto", {"shards": 4}),
        ):
            result = self.run_matrix_campaign(backend, **fields)
            assert result.rows() == reference.rows(), (
                f"campaign backend {backend!r} diverged from the object path"
            )
            assert all(
                day.backend == "vectorized"
                for day in result.days
                if day.negotiated
            )
        # The lazy hand-off slots into the same matrix unchanged.
        lazy = self.run_matrix_campaign(
            "sharded", materialise="lazy", shards=4
        )
        assert lazy.rows() == reference.rows()


@pytest.mark.tier2
class TestPlanningEquivalenceAtScale:
    def test_10k_lazy_campaign_rows_bit_identical(self):
        """Acceptance criterion: lazy-vs-eager rows bit-identical at 10k (tier-2)."""

        def run(materialise: str):
            return campaign(
                build_campaign_planner(10_000, seed=7),
                6,
                conditions=CONDITION_CYCLE,
                config=EngineConfig(materialise=materialise),
                warmup_days=2,
                seed=7,
            )

        eager = run("eager")
        lazy = run("lazy")
        assert eager.days_negotiated >= 1
        assert lazy.rows() == eager.rows()
        assert lazy.backends == eager.backends

    def test_10k_plan_bit_identical(self):
        planner = build_campaign_planner(10_000, seed=7)
        mild = WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)
        cold = WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)
        planner.observe_days([mild, mild])
        columnar = planner.plan(cold, planning="columnar")
        scalar = planner.plan(cold, planning="scalar")
        assert columnar is not None and scalar is not None
        for fleet_spec, scalar_spec in zip(
            columnar.population.specs, scalar.population.specs
        ):
            assert fleet_spec.predicted_use == scalar_spec.predicted_use
            assert (
                fleet_spec.requirements.requirements
                == scalar_spec.requirements.requirements
            )
            assert (
                fleet_spec.requirements.max_feasible_cutdown
                == scalar_spec.requirements.max_feasible_cutdown
            )
