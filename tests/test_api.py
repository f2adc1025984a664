"""Tests for the repro.api engine façade.

Covers the backend table (the three engines, unknown names),
``backend="auto"`` selection on qualifying and non-qualifying scenarios,
config handling, the fluent scenario builder's round-trip contract, and the
acceptance criterion: ``"auto"`` produces bit-identical results to each
explicitly chosen backend.
"""

from __future__ import annotations

import pytest

from repro.api import (
    BackendUnsupportedError,
    EngineConfig,
    UnknownBackendError,
    get_backend,
    run,
    scenario,
    select_backend,
)
from repro.api.engine import BACKENDS
from repro.core.fast_session import FastSession
from repro.core.scenario import (
    Scenario,
    paper_prototype_scenario,
    synthetic_scenario,
)
from repro.core.session import NegotiationSession
from repro.agents.population import CustomerPopulation
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.reward_table import CutdownRewardRequirements
from repro.negotiation.strategy import ConstantBeta, CustomerBiddingPolicy

from test_fast_session_equivalence import assert_equivalent


def small_scenario(**kwargs) -> Scenario:
    return synthetic_scenario(num_households=kwargs.pop("num_households", 8), **kwargs)


def heterogeneous_scenario() -> Scenario:
    coarse = CutdownRewardRequirements(
        requirements={0.0: 0.0, 0.2: 4.0, 0.4: 21.0, 0.8: 95.0},
        max_feasible_cutdown=0.8,
    )
    fine = CutdownRewardRequirements.paper_figure_8_customer()
    population = CustomerPopulation.calibrated(
        predicted_uses=[12.0, 9.0, 14.0, 11.0],
        requirements=[coarse, fine, coarse, fine],
        normal_use=30.0,
        max_allowed_overuse=2.0,
    )
    method = RewardTablesMethod(max_reward=40.0, beta_controller=ConstantBeta(2.0))
    return Scenario(name="hetero", population=population, method=method)


def many_grid_scenario(num_customers: int = 40) -> Scenario:
    """A population with one distinct requirement grid *per customer* —
    beyond the grouped-kernel cap, so only the object path qualifies."""
    requirements = [
        CutdownRewardRequirements(
            requirements={0.0: 0.0, round(0.1 + 0.02 * i, 6): 5.0 + i},
            max_feasible_cutdown=round(0.1 + 0.02 * i, 6),
        )
        for i in range(num_customers)
    ]
    population = CustomerPopulation.calibrated(
        predicted_uses=[10.0 + (i % 7) for i in range(num_customers)],
        requirements=requirements,
        normal_use=8.0 * num_customers,
        max_allowed_overuse=2.0,
    )
    method = RewardTablesMethod(max_reward=40.0, beta_controller=ConstantBeta(2.0))
    return Scenario(name="many_grids", population=population, method=method)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert sorted(BACKENDS) == ["object", "sharded", "vectorized"]
        for name, engine in BACKENDS.items():
            assert engine.name == name
            assert get_backend(name) is engine

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(UnknownBackendError, match="object"):
            get_backend("warp_drive")
        with pytest.raises(UnknownBackendError):
            run(small_scenario(), backend="warp_drive")
        # The former planned slot is just another unknown name.
        with pytest.raises(UnknownBackendError):
            run(small_scenario(), backend="async")


class TestAutoSelection:
    def test_qualifying_scenario_selects_vectorized(self):
        result = run(small_scenario(), seed=0)
        assert result.metadata["backend"] == "vectorized"

    def test_offer_method_qualifies(self):
        result = run(small_scenario(method=OfferMethod()), seed=0)
        assert result.metadata["backend"] == "vectorized"

    def test_request_for_bids_qualifies(self):
        result = run(small_scenario(method=RequestForBidsMethod()), seed=0)
        assert result.metadata["backend"] == "vectorized"

    def test_full_agent_society_falls_back_to_object(self):
        result = run(
            small_scenario(), config=EngineConfig(include_producer=True), seed=0
        )
        assert result.metadata["backend"] == "object"

    def test_heterogeneous_grids_ride_grouped_kernels(self):
        # Mixed requirement grids used to disqualify every batched backend;
        # the grouped per-grid kernels now carry them on the fast path.
        result = run(heterogeneous_scenario(), seed=0)
        assert result.metadata["backend"] == "vectorized"
        reference = run(heterogeneous_scenario(), backend="object", seed=0)
        assert_equivalent(reference, result)

    def test_beyond_group_cap_falls_back_to_object(self):
        result = run(many_grid_scenario(), seed=0)
        assert result.metadata["backend"] == "object"

    def test_custom_bidding_policy_falls_back_to_object(self):
        class TimidBidding(CustomerBiddingPolicy):
            def choose_cutdown(self, table, requirements, previous_bid=None):
                return 0.0

        method = RewardTablesMethod(
            max_reward=40.0,
            beta_controller=ConstantBeta(2.0),
            bidding_policy=TimidBidding(),
        )
        engine, rejections = select_backend(
            small_scenario(method=method), EngineConfig()
        )
        assert engine.name == "object"
        assert "TimidBidding" in rejections["vectorized"]

    def test_stock_policy_subclass_falls_back_to_object(self):
        # FastSession dispatches its batched kernels on the *exact* policy
        # type; a subclass (which may depend on bid history the fast path's
        # scalar fallback does not thread through) must not auto-qualify.
        from repro.negotiation.strategy import HighestAcceptableCutdownBidding

        class StickyBidding(HighestAcceptableCutdownBidding):
            def choose_cutdown(self, table, requirements, previous_bid=None):
                if previous_bid is not None:
                    return previous_bid
                return super().choose_cutdown(table, requirements, previous_bid)

        method = RewardTablesMethod(
            max_reward=40.0,
            beta_controller=ConstantBeta(2.0),
            bidding_policy=StickyBidding(),
        )
        engine, rejections = select_backend(
            small_scenario(method=method), EngineConfig()
        )
        assert engine.name == "object"
        assert "StickyBidding" in rejections["vectorized"]

    def test_select_backend_reports_skipped_slots(self):
        # Auto is a two-way choice: nothing is skipped when the fast path
        # runs, and only the fast path is skipped when the object path runs.
        engine, rejections = select_backend(small_scenario(), EngineConfig(shards=2))
        assert engine.name == "vectorized"
        assert rejections == {}
        engine, rejections = select_backend(many_grid_scenario(), EngineConfig())
        assert engine.name == "object"
        assert set(rejections) == {"vectorized"}


class TestShardedSelection:
    """Auto never picks the sharded runtime; by name it runs and records shards."""

    def test_auto_picks_vectorized_at_scale_with_workers(self):
        # Above the population size where auto used to shard, with workers
        # to spare, auto still picks the single-core fast path — and its
        # result equals an explicit sharded run.
        town = synthetic_scenario(num_households=5000, seed=2)
        engine, rejections = select_backend(town, EngineConfig(shards=2))
        assert engine.name == "vectorized"
        assert rejections == {}
        auto = run(town, seed=0, shards=2)
        sharded = run(town, backend="sharded", seed=0, shards=2)
        assert auto.metadata["backend"] == "vectorized"
        assert "shards" not in auto.metadata
        assert sharded.metadata["backend"] == "sharded"
        assert_equivalent(auto, sharded)

    def test_auto_records_fallback_reasons_on_object_path(self):
        # A scenario the batched kernels cannot carry — more distinct grids
        # than the grouped-kernel cap — excludes the fast path, and the
        # exclusion reason lands in the metadata.
        result = run(many_grid_scenario(), seed=0, shards=2)
        assert result.metadata["backend"] == "object"
        rejections = result.metadata["backend_rejections"]
        assert set(rejections) == {"vectorized"}
        assert "distinct requirement grids exceed" in rejections["vectorized"]

    def test_explicit_sharded_runs_heterogeneous_grids(self):
        # Grouped kernels carry the sharded runtime too: a mixed-grid
        # population fans out, bit-identically.
        result = run(heterogeneous_scenario(), backend="sharded", seed=0, shards=2)
        assert result.metadata["backend"] == "sharded"
        reference = run(heterogeneous_scenario(), backend="object", seed=0)
        assert_equivalent(reference, result)

    def test_explicit_backend_records_no_rejections(self):
        result = run(small_scenario(), backend="vectorized", seed=0)
        assert result.metadata["backend"] == "vectorized"
        assert "backend_rejections" not in result.metadata

    def test_lazy_population_qualifies_without_materialising(self):
        # Auto-selection must not defeat the zero-materialisation path by
        # touching population.specs for its shared-grid check.
        from repro.core.planning import DayAheadPlanner
        from repro.grid.household import Household
        from repro.grid.weather import WeatherCondition, WeatherSample
        from repro.runtime.rng import RandomSource

        random = RandomSource(7, "lazy_select")
        households = [
            Household.generate(f"h{i}", random.spawn(f"h{i}")) for i in range(20)
        ]
        planner = DayAheadPlanner(households, normal_capacity_kw=10.0)
        planner.observe_days(
            [WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)] * 2
        )
        scenario_ = planner.plan(
            WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD),
            materialise="lazy",
        )
        assert scenario_ is not None
        engine, __ = select_backend(scenario_, EngineConfig())
        assert engine.name == "vectorized"
        assert scenario_.population.materialised is False

    def test_explicit_sharded_records_shard_count(self):
        result = run(small_scenario(), backend="sharded", seed=0, shards=3)
        assert result.metadata["backend"] == "sharded"
        assert result.metadata["shards"] == 3

    def test_explicit_sharded_with_producer_config_rejected(self):
        with pytest.raises(BackendUnsupportedError, match="object path"):
            run(
                small_scenario(),
                backend="sharded",
                config=EngineConfig(include_producer=True, shards=2),
            )

    def test_sharded_equivalent_to_auto_fast_path(self):
        auto = run(small_scenario(), seed=0)
        sharded = run(small_scenario(), backend="sharded", seed=0, shards=2)
        assert auto.metadata["backend"] == "vectorized"
        assert sharded.metadata["backend"] == "sharded"
        assert_equivalent(auto, sharded)

    def test_invalid_shard_config_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(shards=0)


class TestRunConfig:
    def test_kwarg_overrides_replace_config_fields(self):
        config = EngineConfig(seed=1, check_protocol=False)
        result = run(small_scenario(), config=config, seed=7)
        assert result.metadata["backend"] == "vectorized"

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            run(small_scenario(), retain_msg_log=False)

    def test_explicit_vectorized_with_producer_config_rejected(self):
        with pytest.raises(BackendUnsupportedError, match="object path"):
            run(
                small_scenario(),
                backend="vectorized",
                config=EngineConfig(include_producer=True),
            )

    def test_session_kwargs_match_session_signatures(self):
        config = EngineConfig(seed=3, max_simulation_rounds=77, check_protocol=False)
        session = NegotiationSession(paper_prototype_scenario(), **config.session_kwargs())
        assert session.seed == 3
        assert session.max_simulation_rounds == 77
        assert session.check_protocol is False
        fast = FastSession(paper_prototype_scenario(), **config.fast_session_kwargs())
        assert fast.seed == 3
        assert fast.max_simulation_rounds == 77

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(max_simulation_rounds=0)

    def test_typoed_mode_knobs_fail_at_construction(self):
        # A typo'd knob must fail loudly at construction — never silently
        # select a fallback path — and the error must name the options.
        with pytest.raises(ValueError, match=r"colunmar.*columnar.*scalar"):
            EngineConfig(planning="colunmar")
        with pytest.raises(ValueError, match=r"lazey.*eager.*lazy"):
            EngineConfig(materialise="lazey")
        with pytest.raises(ValueError, match="history_window"):
            EngineConfig(history_window=0)
        with pytest.raises(ValueError, match="history_window"):
            EngineConfig(history_window=-3)

    def test_planner_validates_the_same_knobs(self):
        from repro.core.planning import DayAheadPlanner
        from repro.grid.household import Household
        from repro.runtime.rng import RandomSource

        households = [Household.generate("h0", RandomSource(0, "h"))]
        with pytest.raises(ValueError, match="columnar"):
            DayAheadPlanner(households, 10.0, planning="columanr")
        with pytest.raises(ValueError, match="eager"):
            DayAheadPlanner(households, 10.0, materialise="eagre")
        with pytest.raises(ValueError, match="history_window"):
            DayAheadPlanner(households, 10.0, history_window=0)
        planner = DayAheadPlanner(households, 10.0)
        from repro.grid.weather import WeatherCondition, WeatherSample

        mild = WeatherSample(temperature_c=10.0, condition=WeatherCondition.MILD)
        planner.observe_day(mild)
        with pytest.raises(ValueError, match="scalar"):
            planner.plan(mild, planning="sclar")
        with pytest.raises(ValueError, match="lazy"):
            planner.plan(mild, materialise="lzy")


class TestScenarioBuilder:
    def test_synthetic_round_trip_matches_manual_construction(self):
        built = scenario().households(12).seed(3).build()
        # The scalar planning path always materialises eagerly: the oracle.
        manual = synthetic_scenario(num_households=12, seed=3, planning="scalar")
        assert built.name == manual.name
        assert built.population.customer_ids == manual.population.customer_ids
        assert built.population.normal_use == manual.population.normal_use
        assert [s.predicted_use for s in built.population.specs] == [
            s.predicted_use for s in manual.population.specs
        ]
        assert [s.requirements for s in built.population.specs] == [
            s.requirements for s in manual.population.specs
        ]
        assert_equivalent(run(manual, backend="object", seed=0), run(built, seed=0))

    def test_beta_and_max_reward_flow_into_the_method(self):
        built = scenario().households(10).beta(3.0).max_reward(80.0).build()
        manual = synthetic_scenario(num_households=10, beta=3.0, max_reward=80.0)
        assert built.method.name == manual.method.name
        assert built.method.max_reward == manual.method.max_reward == 80.0
        assert_equivalent(run(manual, seed=0), run(built, seed=0))

    def test_paper_round_trip(self):
        built = scenario().paper_prototype().beta(1.5).build()
        manual = paper_prototype_scenario(beta=1.5)
        assert_equivalent(run(manual, seed=0), run(built, seed=0))

    def test_method_names_resolve(self):
        assert isinstance(
            scenario().households(5).method("offer").build().method, OfferMethod
        )
        assert isinstance(
            scenario().households(5).method("request_for_bids").build().method,
            RequestForBidsMethod,
        )
        custom = OfferMethod(x_max=0.9)
        assert scenario().households(5).method(custom).build().method is custom

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            scenario().method("bribery")
        with pytest.raises(TypeError):
            scenario().method(42)
        with pytest.raises(ValueError, match="reward-tables"):
            scenario().households(5).method("offer").beta(2.0).build()
        with pytest.raises(ValueError, match="fixed population"):
            scenario().households(10).paper_prototype().build()
        # Explicit method *instances* must be rejected in paper mode too,
        # never silently replaced by the calibrated reward-tables method.
        with pytest.raises(ValueError, match="calibrated"):
            scenario().paper_prototype().method(OfferMethod(x_max=0.9)).build()
        with pytest.raises(ValueError, match="calibrated"):
            scenario().paper_prototype().method("offer").build()
        with pytest.raises(ValueError, match="paper-scenario parameter"):
            scenario().households(5).max_allowed_overuse(3.0).build()

    def test_builder_run_shortcut(self):
        result = scenario().households(6).run(seed=0)
        assert result.metadata["backend"] == "vectorized"
        assert result.rounds >= 1


def _method_variants() -> list:
    return [
        pytest.param(lambda: None, id="reward_tables"),
        pytest.param(lambda: OfferMethod(), id="offer"),
        pytest.param(lambda: RequestForBidsMethod(), id="request_for_bids"),
    ]


class TestAutoEquivalence:
    """Acceptance criterion: auto is bit-identical to each explicit backend."""

    @pytest.mark.parametrize("make_method", _method_variants())
    def test_auto_matches_explicit_backends(self, make_method):
        def make(planning="columnar"):
            return synthetic_scenario(
                num_households=10, seed=1, method=make_method(), planning=planning
            )

        auto = run(make(), seed=0)
        vectorized = run(make(), backend="vectorized", seed=0)
        sharded = run(make(), backend="sharded", seed=0, shards=2)
        # The oracles are pinned by name: the object backend on a scenario
        # built by the scalar (always eager) planning path, and the fast
        # path's object rounds.
        objectpath = run(make("scalar"), backend="object", seed=0)
        object_rounds = run(make("scalar"), backend="vectorized", seed=0, rounds="object")
        assert auto.metadata["backend"] == "vectorized"
        assert auto.metadata["rounds_mode"] == "array"
        assert object_rounds.metadata["rounds_mode"] == "object"
        assert_equivalent(objectpath, auto)
        assert_equivalent(objectpath, vectorized)
        assert_equivalent(objectpath, sharded)
        assert_equivalent(objectpath, object_rounds)

    @pytest.mark.tier2
    @pytest.mark.parametrize("num_households", [40, 120])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("make_method", _method_variants())
    def test_auto_matches_explicit_backends_matrix(
        self, num_households, seed, make_method
    ):
        def make(planning="columnar"):
            return synthetic_scenario(
                num_households=num_households, seed=seed, method=make_method(),
                planning=planning,
            )

        auto = run(make(), seed=seed)
        vectorized = run(make(), backend="vectorized", seed=seed)
        sharded = run(make(), backend="sharded", seed=seed, shards=4)
        objectpath = run(make("scalar"), backend="object", seed=seed)
        object_rounds = run(
            make("scalar"), backend="vectorized", seed=seed, rounds="object"
        )
        assert auto.metadata["backend"] == "vectorized"
        assert_equivalent(objectpath, auto)
        assert_equivalent(objectpath, vectorized)
        assert_equivalent(objectpath, sharded)
        assert_equivalent(objectpath, object_rounds)

    @pytest.mark.tier2
    @pytest.mark.parametrize("make_method", _method_variants())
    def test_explicit_sharded_matches_object_path(self, make_method):
        def make(planning="columnar"):
            return synthetic_scenario(
                num_households=64, seed=3, method=make_method(), planning=planning
            )

        sharded = run(make(), backend="sharded", seed=0, shards=2)
        objectpath = run(make("scalar"), backend="object", seed=0)
        assert sharded.metadata["backend"] == "sharded"
        assert sharded.metadata["shards"] == 2
        assert_equivalent(objectpath, sharded)
