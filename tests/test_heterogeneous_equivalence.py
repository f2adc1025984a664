"""Mixed-appliance populations across every backend, end to end.

PR 10 removes the scalar-fallback cliff for heterogeneous household sets:
planning runs on a :class:`~repro.grid.fleet.BucketedFleet` (one
:class:`~repro.grid.fleet.HouseholdFleet` per appliance signature, results
scattered back into population order) and negotiation runs the grouped
per-grid kernels when requirement grids differ.  These tests pin the whole
chain on a deliberately mixed population — two appliance libraries, permuted
ownership-dict orders, an appliance-less household — from the day-ahead
planner through ``repro.api.run`` on the object, vectorized and sharded
backends, under object and array rounds, with and without a chaos
:class:`~repro.runtime.faults.FaultPlan`.  The object path is the oracle,
under faults as well; everything must match it bit for bit.
"""

from __future__ import annotations

import pytest

from repro.api import run
from repro.core.planning import DayAheadPlanner
from repro.core.scenario import Scenario
from repro.grid.demand import DemandModel
from repro.grid.fleet import BucketedFleet
from repro.grid.weather import WeatherCondition, WeatherSample
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.reward_table import CutdownRewardRequirements
from repro.negotiation.strategy import ConstantBeta
from repro.runtime.faults import FaultPlan
from repro.runtime.rng import RandomSource

from test_array_rounds import assert_array_equivalent
from test_fast_session_equivalence import assert_equivalent
from test_grid_fleet import make_mixed_households

MILD = WeatherSample(temperature_c=12.0, condition=WeatherCondition.MILD)
COLD_FORECAST = WeatherSample(
    temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD
)
CHAOS_PLAN = FaultPlan(
    seed=11, message_drop_rate=0.08, message_delay_rate=0.1, crash_rate=0.05
)

METHOD_FACTORIES = {
    "reward_tables": lambda: RewardTablesMethod(
        max_reward=60.0, beta_controller=ConstantBeta(2.0)
    ),
    "request_for_bids": lambda: RequestForBidsMethod(),
    "offer": lambda: OfferMethod(x_max=0.8),
}


def make_planned_scenario(
    method_name: str = "reward_tables", materialise: str = "lazy"
) -> Scenario:
    """Plan a peak day for the mixed population, deterministically.

    Everything is seeded, so repeated calls build bit-identical scenarios —
    each backend run gets its own independent Scenario instance, exactly as
    the fast-session equivalence tests do.  References pass
    ``materialise="eager"`` so the oracle side never rides the lazy hand-off.
    """
    households = make_mixed_households()
    random = RandomSource(31, "hetero_equiv")
    demand_model = DemandModel(households, random.spawn("d"))
    capacity = demand_model.normal_capacity_for_target(quantile=0.8)
    planner = DayAheadPlanner(households, capacity, random=random.spawn("planner"))
    assert isinstance(planner.fleet, BucketedFleet)
    assert planner.planning_fallback is None
    for __ in range(3):
        planner.observe_day(MILD)
    scenario = planner.plan(
        COLD_FORECAST, method=METHOD_FACTORIES[method_name](), materialise=materialise
    )
    assert scenario is not None, "the cold forecast must predict a peak"
    return scenario


def make_hetero_grid_scenario(num_customers: int = 24) -> Scenario:
    """Calibrated population with a handful of *distinct* requirement grids."""
    requirements = []
    for i in range(num_customers):
        step = round(0.15 + 0.05 * (i % 4), 6)
        requirements.append(
            CutdownRewardRequirements(
                requirements={0.0: 0.0, step: 4.0 + i % 4, 0.8: 60.0 + i % 4},
                max_feasible_cutdown=0.8,
            )
        )
    from repro.agents.population import CustomerPopulation

    population = CustomerPopulation.calibrated(
        predicted_uses=[10.0 + (i % 7) for i in range(num_customers)],
        requirements=requirements,
        normal_use=8.0 * num_customers,
        max_allowed_overuse=2.0,
    )
    return Scenario(
        name="hetero_grids",
        population=population,
        method=RewardTablesMethod(max_reward=40.0, beta_controller=ConstantBeta(2.0)),
    )


def assert_chaos_equivalent(reference, result) -> None:
    """Field-by-field equality plus the fault ledger and counters."""
    assert_equivalent(reference, result)
    assert result.summary() == reference.summary()
    assert result.degraded_households == reference.degraded_households
    assert (
        result.metadata["faults"]["injected"]
        == reference.metadata["faults"]["injected"]
    )


class TestPlannedMixedPopulation:
    """The tentpole, end to end: plan on buckets, negotiate batched."""

    def test_auto_selects_a_batched_backend(self):
        result = run(make_planned_scenario(), backend="auto")
        assert result.metadata["backend"] in ("vectorized", "sharded")
        assert "planning_fallback" not in result.metadata

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    def test_vectorized_matches_object(self, method_name):
        reference = run(
            make_planned_scenario(method_name, materialise="eager"), backend="object"
        )
        result = run(make_planned_scenario(method_name), backend="vectorized")
        assert_equivalent(reference, result)

    def test_sharded_matches_object(self):
        reference = run(make_planned_scenario(materialise="eager"), backend="object")
        result = run(make_planned_scenario(), backend="sharded", shards=2)
        assert_equivalent(reference, result)

    def test_array_rounds_match_object_rounds(self):
        reference = run(
            make_planned_scenario(materialise="eager"),
            backend="vectorized",
            rounds="object",
        )
        result = run(make_planned_scenario(), backend="vectorized", rounds="array")
        assert_array_equivalent(reference, result)

    @pytest.mark.chaos
    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    def test_chaos_plan_agrees_across_backends(self, method_name):
        # One fault model: the object backend's bus applies the per-round
        # customer masks the batched backends apply to the whole exchange.
        reference = run(
            make_planned_scenario(method_name, materialise="eager"),
            backend="object",
            fault_plan=CHAOS_PLAN,
        )
        assert reference.metadata["faults"]["injected"]["agent_crashes"] > 0
        for backend, options in (("vectorized", {}), ("sharded", {"shards": 2})):
            result = run(
                make_planned_scenario(method_name),
                backend=backend,
                fault_plan=CHAOS_PLAN,
                **options,
            )
            assert_chaos_equivalent(reference, result)

    @pytest.mark.chaos
    def test_chaos_array_rounds_match(self):
        reference = run(
            make_planned_scenario(materialise="eager"),
            backend="vectorized",
            rounds="object",
            fault_plan=CHAOS_PLAN,
        )
        result = run(
            make_planned_scenario(),
            backend="vectorized",
            rounds="array",
            fault_plan=CHAOS_PLAN,
        )
        assert_array_equivalent(reference, result)
        oracle = run(
            make_planned_scenario(materialise="eager"),
            backend="object",
            fault_plan=CHAOS_PLAN,
        )
        assert_chaos_equivalent(oracle, result)


class TestHeterogeneousGridScenarios:
    """Grouped-grid kernels across backends and round modes."""

    def test_auto_rides_grouped_kernels(self):
        result = run(make_hetero_grid_scenario(), backend="auto")
        assert result.metadata["backend"] == "vectorized"

    def test_vectorized_and_sharded_match_object(self):
        reference = run(make_hetero_grid_scenario(), backend="object")
        vectorized = run(make_hetero_grid_scenario(), backend="vectorized")
        assert_equivalent(reference, vectorized)
        sharded = run(
            make_hetero_grid_scenario(), backend="sharded", shards=2
        )
        assert_equivalent(reference, sharded)

    @pytest.mark.chaos
    def test_array_rounds_with_chaos_match(self):
        reference = run(
            make_hetero_grid_scenario(),
            backend="vectorized",
            rounds="object",
            fault_plan=CHAOS_PLAN,
        )
        result = run(
            make_hetero_grid_scenario(),
            backend="vectorized",
            rounds="array",
            fault_plan=CHAOS_PLAN,
        )
        assert_array_equivalent(reference, result)
        oracle = run(
            make_hetero_grid_scenario(), backend="object", fault_plan=CHAOS_PLAN
        )
        assert_chaos_equivalent(oracle, result)
