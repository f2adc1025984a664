"""Array-native rounds: ``rounds="array"`` against the object-round oracle.

The array round path (PR 9) evaluates every round on the numpy state arrays
the vectorized session already computes — no per-round ``Bid`` objects, no
dict round tables — and materialises per-customer outcomes lazily through
:class:`~repro.core.results.ColumnarOutcomes`.  It is only trustworthy if it
is *indistinguishable* from the object-building fast path at equal seeds:
same announcements, same overuse trajectory, same message counts, same
termination, same per-customer outcomes and the same fault semantics under a
nonzero :class:`~repro.runtime.faults.FaultPlan`.  These tests pin that
contract across the three stock methods, both stock bidding policies, chaos
plans, the sharded runtime and the engine façade, plus the lazy-view ≡
eager-dict property of the outcome and round-bid views and the "zero ``Bid``
allocations" perf invariant.  Array rounds and lazy hand-off are the
defaults at every entry point, so the default-path tests at the end pin the
defaults against explicitly requested oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, campaign, run
from repro.core.fast_session import FastSession
from repro.core.results import ColumnarOutcomes, CustomerOutcome
from repro.core.scenario import paper_prototype_scenario, synthetic_scenario
from repro.core.session import NegotiationSession
from repro.core.sharded_session import ShardedSession
from repro.experiments.campaign_bench import build_campaign_planner
from repro.grid.weather import WeatherCondition
from repro.negotiation.messages import CutdownBid, OfferResponse, QuantityBid
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.protocol import ColumnarBids
from repro.negotiation.strategy import (
    ConstantBeta,
    ExpectedGainBidding,
    SelectiveBidAcceptance,
)
from repro.runtime.faults import FaultPlan

from test_fast_session_equivalence import assert_equivalent

# The matrix axes: every stock method × both stock bidding policies (the
# bidding policy is a reward-tables concept; the other methods carry their
# single stock behaviour).
METHOD_FACTORIES = {
    "reward_tables": lambda: RewardTablesMethod(
        max_reward=60.0, beta_controller=ConstantBeta(2.0)
    ),
    "reward_tables_expected_gain": lambda: RewardTablesMethod(
        max_reward=60.0,
        beta_controller=ConstantBeta(2.0),
        bidding_policy=ExpectedGainBidding(),
        reward_epsilon=0.3,
    ),
    "request_for_bids": lambda: RequestForBidsMethod(),
    "offer": lambda: OfferMethod(x_max=0.8),
}

CHAOS_PLAN = FaultPlan(
    seed=11, message_drop_rate=0.08, message_delay_rate=0.1, crash_rate=0.05
)


def assert_array_equivalent(object_result, array_result) -> None:
    """Field-by-field equality, round bid tables included.

    Covers announcements, each round's delivered bids (a lazy
    :class:`ColumnarBids` view on array rounds against the object round's
    dict), the overuse trajectory, counters, termination, rewards and the
    full per-customer outcome mapping.
    """
    assert array_result.metadata["rounds_mode"] == "array"
    assert object_result.metadata["rounds_mode"] == "object"
    assert array_result.rounds == object_result.rounds
    assert array_result.messages_sent == object_result.messages_sent
    assert array_result.simulation_rounds == object_result.simulation_rounds
    assert array_result.total_reward_paid == object_result.total_reward_paid
    assert (
        array_result.record.termination_reason
        == object_result.record.termination_reason
    )
    assert array_result.record.outcome == object_result.record.outcome
    assert array_result.record.initial_overuse == object_result.record.initial_overuse
    assert array_result.record.final_overuse == object_result.record.final_overuse
    assert (
        array_result.record.overuse_trajectory
        == object_result.record.overuse_trajectory
    )
    for object_round, array_round in zip(
        object_result.record.rounds, array_result.record.rounds
    ):
        assert array_round.announcement == object_round.announcement
        assert array_round.bids == object_round.bids
        assert (
            array_round.predicted_overuse_before
            == object_round.predicted_overuse_before
        )
        assert (
            array_round.predicted_overuse_after
            == object_round.predicted_overuse_after
        )
    assert array_result.degraded_households == object_result.degraded_households
    # Mapping equality materialises every lazy outcome and compares it to
    # the eager dict — the strongest per-customer check available.
    assert isinstance(array_result.customer_outcomes, ColumnarOutcomes)
    assert array_result.customer_outcomes == object_result.customer_outcomes
    assert (
        array_result.total_customer_surplus
        == object_result.total_customer_surplus
    )
    assert array_result.participation_rate == object_result.participation_rate


def run_both_modes(make_scenario, fault_plan=None, seed=0) -> tuple:
    """Run the fast session in object and array round modes independently."""
    object_session = FastSession(
        make_scenario(), seed=seed, fault_plan=fault_plan, rounds="object"
    )
    object_result = object_session.run()
    array_session = FastSession(
        make_scenario(), seed=seed, fault_plan=fault_plan, rounds="array"
    )
    array_result = array_session.run()
    return object_result, array_result


class TestArrayObjectEquivalence:
    """The matrix: three stock methods × both stock bidding policies."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    @pytest.mark.parametrize("num_households", [6, 25])
    def test_matrix(self, method_name, num_households):
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(
                num_households=num_households, seed=3, method=factory()
            )

        object_result, array_result = run_both_modes(make)
        assert_array_equivalent(object_result, array_result)

    def test_paper_prototype(self):
        object_result, array_result = run_both_modes(paper_prototype_scenario)
        assert_array_equivalent(object_result, array_result)
        assert array_result.rounds == 3

    def test_non_stock_policy_falls_back_to_object_rounds(self):
        # A non-stock acceptance policy may redefine per-bid semantics, so
        # the session must refuse the array contract and run object rounds —
        # correctness first, the mode is recorded for observability.
        def make():
            return synthetic_scenario(
                num_households=10,
                seed=3,
                method=RewardTablesMethod(
                    max_reward=60.0,
                    beta_controller=ConstantBeta(2.0),
                    acceptance_policy=SelectiveBidAcceptance(safety_margin=0.05),
                ),
            )

        requested = FastSession(make(), seed=0, rounds="array")
        requested_result = requested.run()
        assert requested_result.metadata["rounds_mode"] == "object"
        baseline_result = FastSession(make(), seed=0, rounds="object").run()
        assert requested_result.customer_outcomes == baseline_result.customer_outcomes
        assert requested_result.total_reward_paid == baseline_result.total_reward_paid

    def test_engine_facade_records_mode_and_kernel_cache(self):
        scenario = synthetic_scenario(num_households=30, seed=5)
        result = run(scenario, config=EngineConfig(rounds="array", seed=0))
        assert result.metadata["rounds_mode"] == "array"
        cache = result.metadata["kernel_cache"]
        assert set(cache) == {"hits", "misses"}
        assert all(isinstance(value, int) for value in cache.values())

    def test_invalid_rounds_mode_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            FastSession(synthetic_scenario(num_households=4, seed=0), rounds="matrix")


@pytest.mark.chaos
class TestArrayRoundsUnderFaults:
    """Fault masks are keyed by (seed, stream, round), never by round mode
    or backend."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    def test_chaos_equivalence(self, method_name):
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(
                num_households=40, seed=9, method=factory()
            )

        object_result, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        assert_array_equivalent(object_result, array_result)
        assert array_result.metadata["faults"] == object_result.metadata["faults"]
        # The object backend is the oracle under faults too: its bus applies
        # the same per-round masks to each announcement and bid.
        oracle = NegotiationSession(make(), seed=0, fault_plan=CHAOS_PLAN).run()
        assert_equivalent(oracle, array_result)
        assert array_result.summary() == oracle.summary()
        assert array_result.degraded_households == oracle.degraded_households
        assert array_result.metadata["faults"] == oracle.metadata["faults"]

    @pytest.mark.parametrize("budget", [3, 8, 22, 27])
    def test_round_budget_cut_matches_object_backend(self, budget):
        # A simulation-round budget that runs out while the Utility Agent
        # waits for missing bids ends both backends in the same round, and
        # the unevaluated last exchange degrades nobody.
        def make():
            return synthetic_scenario(
                num_households=40,
                seed=9,
                method=METHOD_FACTORIES["reward_tables_expected_gain"](),
            )

        oracle = NegotiationSession(
            make(), seed=0, fault_plan=CHAOS_PLAN, max_simulation_rounds=budget
        ).run()
        result = FastSession(
            make(), seed=0, fault_plan=CHAOS_PLAN, max_simulation_rounds=budget
        ).run()
        assert result.record.final_overuse is None, "the budget must cut the run"
        assert result.simulation_rounds == oracle.simulation_rounds == budget
        assert result.rounds == oracle.rounds
        assert result.messages_sent == oracle.messages_sent
        assert result.degraded_households == oracle.degraded_households
        assert result.customer_outcomes == oracle.customer_outcomes
        assert result.metadata["faults"] == oracle.metadata["faults"]

    def test_faults_actually_degrade_someone(self):
        # The chaos matrix is vacuous if the plan never fires: pin that this
        # plan degrades at least one household at this size and seed.
        def make():
            return synthetic_scenario(num_households=40, seed=9)

        _, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        assert array_result.degraded_households > 0


class TestShardedArrayRounds:
    def test_sharded_matches_object_oracle(self):
        def make():
            return synthetic_scenario(num_households=64, seed=6)

        object_result = FastSession(make(), seed=0, rounds="object").run()
        sharded = ShardedSession(make(), seed=0, shards=4, rounds="array")
        array_result = sharded.run()
        assert sharded.num_shards == 4
        assert_array_equivalent(object_result, array_result)
        # The shard reconciliation diagnostics ride the same state arrays in
        # both modes: one reconciled estimate per evaluated round.
        assert len(sharded.reconciled_overuses()) == len(array_result.record.rounds)

    @pytest.mark.chaos
    def test_sharded_chaos_matches_unsharded_array_rounds(self):
        def make():
            return synthetic_scenario(num_households=64, seed=6)

        solo = FastSession(make(), seed=0, fault_plan=CHAOS_PLAN, rounds="array")
        solo_result = solo.run()
        sharded = ShardedSession(
            make(), seed=0, shards=4, fault_plan=CHAOS_PLAN, rounds="array"
        )
        sharded_result = sharded.run()
        assert sharded_result.customer_outcomes == solo_result.customer_outcomes
        assert sharded_result.degraded_households == solo_result.degraded_households


# -- round bid tables and the defaults ----------------------------------------------


class TestArrayRoundBidView:
    """Array rounds retain their bids as a lazy view equal to the object dict."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_FACTORIES))
    @pytest.mark.parametrize("fault_plan", [None, CHAOS_PLAN], ids=["clean", "chaos"])
    def test_view_equals_object_bids(self, method_name, fault_plan):
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(num_households=40, seed=9, method=factory())

        object_result, array_result = run_both_modes(make, fault_plan=fault_plan)
        assert array_result.metadata["rounds_mode"] == "array"
        assert len(array_result.record.rounds) == len(object_result.record.rounds)
        for object_round, array_round in zip(
            object_result.record.rounds, array_result.record.rounds
        ):
            assert isinstance(array_round.bids, ColumnarBids)
            assert array_round == object_round
            assert list(array_round.bids) == list(object_round.bids)
            assert list(array_round.bids.values()) == list(object_round.bids.values())
            assert array_round.participation == object_round.participation
        assert array_result.record.final_bids() == object_result.record.final_bids()
        for customer in object_result.customer_outcomes:
            assert array_result.customer_bid_trajectory(
                customer
            ) == object_result.customer_bid_trajectory(customer)

    def test_chaos_view_drops_undelivered_rows(self):
        # The chaos equivalence above is only meaningful if some round really
        # lost bids: pin that the view then holds fewer rows than customers.
        def make():
            return synthetic_scenario(num_households=40, seed=9)

        object_result, array_result = run_both_modes(make, fault_plan=CHAOS_PLAN)
        short_rounds = [
            (object_round, array_round)
            for object_round, array_round in zip(
                object_result.record.rounds, array_result.record.rounds
            )
            if len(array_round.bids) < 40
        ]
        assert short_rounds
        for object_round, array_round in short_rounds:
            missing = set(array_round.bids.customer_ids) - set(array_round.bids)
            assert missing
            for customer in missing:
                assert customer not in object_round.bids
                assert customer not in array_round.bids
                assert array_round.bids.get(customer) is None
            assert dict(array_round.bids) == object_round.bids

    @pytest.mark.parametrize("rounds", ["object", "array"])
    def test_no_retention_keeps_no_bids(self, rounds):
        scenario = synthetic_scenario(num_households=30, seed=5)
        result = run(
            scenario,
            backend="vectorized",
            config=EngineConfig(rounds=rounds, retain_message_log=False),
        )
        assert result.metadata["rounds_mode"] == rounds
        assert result.rounds > 0
        assert all(round_record.bids == {} for round_record in result.record.rounds)
        assert result.record.final_bids() == {}

    def test_default_run_reproduces_figure_8_9_bids(self):
        result = run(paper_prototype_scenario())
        assert result.metadata["rounds_mode"] == "array"
        assert result.customer_bid_trajectory("c000") == [0.2, 0.4, 0.4]
        oracle = run(paper_prototype_scenario(), config=EngineConfig(rounds="object"))
        assert oracle.metadata["rounds_mode"] == "object"
        assert result.record.rounds == oracle.record.rounds
        assert result.customer_outcomes == oracle.customer_outcomes

    def test_default_campaign_rows_match_object_eager_oracle(self):
        conditions = (
            WeatherCondition.MILD, WeatherCondition.SEVERE_COLD, WeatherCondition.COLD
        )

        def run_campaign(config):
            return campaign(
                build_campaign_planner(300, seed=7), 6, conditions=conditions,
                config=config, warmup_days=2, seed=7,
            )

        default = run_campaign(None)
        oracle = run_campaign(EngineConfig(rounds="object", materialise="eager"))
        assert default.days_negotiated >= 1
        assert default.rows() == oracle.rows()
        assert default.metadata["rounds"] == "array"
        assert default.metadata["materialise"] == "lazy"
        assert oracle.metadata["rounds"] == "object"
        assert oracle.metadata["materialise"] == "eager"


BID_TYPES = {
    CutdownBid: ("cutdown", st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    OfferResponse: ("accept", st.booleans()),
    QuantityBid: ("needed_use", st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
}

bid_columns = st.tuples(
    st.sampled_from(sorted(BID_TYPES, key=lambda bid_type: bid_type.__name__)),
    st.integers(min_value=0, max_value=12),
).flatmap(
    lambda kind: st.tuples(
        st.just(kind[0]),
        st.lists(BID_TYPES[kind[0]][1], min_size=kind[1], max_size=kind[1]),
        st.one_of(
            st.none(), st.lists(st.booleans(), min_size=kind[1], max_size=kind[1])
        ),
        st.integers(min_value=0, max_value=20),
    )
)


class TestColumnarBidsView:
    @given(columns=bid_columns)
    @settings(max_examples=60)
    def test_view_equals_eager_dict(self, columns):
        bid_type, values, lost, round_number = columns
        field_name = BID_TYPES[bid_type][0]
        ids = [f"c{i}" for i in range(len(values))]
        view = ColumnarBids(
            customer_ids=ids,
            round_number=round_number,
            bid_type=bid_type,
            column=np.asarray(values),
            undelivered=np.asarray(lost, dtype=bool) if lost is not None else None,
        )
        eager = {
            customer: bid_type(
                customer=customer, round_number=round_number, **{field_name: value}
            )
            for index, (customer, value) in enumerate(zip(ids, values))
            if lost is None or not lost[index]
        }
        assert len(view) == len(eager)
        assert list(view) == list(eager)
        assert view == eager
        assert eager == view
        assert list(view.values()) == list(eager.values())
        for customer in ids:
            assert (customer in view) == (customer in eager)
            assert view.get(customer) == eager.get(customer)
        with pytest.raises(KeyError):
            view["nobody"]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column length"):
            ColumnarBids(["a", "b"], 0, CutdownBid, np.zeros(3))
        with pytest.raises(ValueError, match="column length"):
            ColumnarBids(["a", "b"], 0, CutdownBid, np.zeros(2), np.zeros(1, dtype=bool))


# -- the lazy columnar view ---------------------------------------------------------

outcome_columns = st.integers(min_value=0, max_value=12).flatmap(
    lambda size: st.tuples(
        st.just([f"c{i}" for i in range(size)]),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
        st.lists(
            st.floats(min_value=-50.0, max_value=100.0, allow_nan=False),
            min_size=size, max_size=size,
        ),
    )
)


class TestColumnarOutcomesView:
    @given(columns=outcome_columns)
    @settings(max_examples=60)
    def test_view_equals_eager_dict(self, columns):
        ids, final_bids, awarded, committed, rewards, surpluses = columns
        view = ColumnarOutcomes(
            customer_ids=ids,
            final_bid_cutdowns=np.asarray(final_bids, dtype=float),
            awarded=np.asarray(awarded, dtype=bool),
            committed_cutdowns=np.asarray(committed, dtype=float),
            rewards=np.asarray(rewards, dtype=float),
            surpluses=np.asarray(surpluses, dtype=float),
        )
        eager = {
            customer: CustomerOutcome(
                customer=customer,
                final_bid_cutdown=final_bids[index],
                awarded=awarded[index],
                committed_cutdown=committed[index],
                reward=rewards[index],
                surplus=surpluses[index],
            )
            for index, customer in enumerate(ids)
        }
        assert len(view) == len(eager)
        assert list(view) == list(eager)
        assert view == eager
        assert eager == view
        assert dict(view.items()) == eager
        assert list(view.values()) == list(eager.values())
        for customer in ids:
            assert customer in view
            assert view[customer] == eager[customer]
            assert view.get(customer) == eager[customer]
        assert "nobody" not in view
        assert view.get("nobody") is None
        with pytest.raises(KeyError):
            view["nobody"]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column length"):
            ColumnarOutcomes(
                customer_ids=["a", "b"],
                final_bid_cutdowns=np.zeros(2),
                awarded=np.zeros(2, dtype=bool),
                committed_cutdowns=np.zeros(3),
                rewards=np.zeros(2),
                surpluses=np.zeros(2),
            )


# -- the perf invariant -------------------------------------------------------------


@pytest.mark.perf_smoke
class TestArrayRoundsAllocateNoBids:
    """The point of the mode: zero per-round ``Bid`` objects, same answer."""

    @pytest.mark.parametrize(
        "method_name", ["reward_tables", "request_for_bids", "offer"]
    )
    def test_zero_bid_constructions(self, method_name, monkeypatch):
        from repro.negotiation.messages import CutdownBid, OfferResponse, QuantityBid

        constructions = {"count": 0}

        def counting(original_init):
            def construct(self, *args, **kwargs):
                constructions["count"] += 1
                original_init(self, *args, **kwargs)

            return construct

        for bid_class in (CutdownBid, QuantityBid, OfferResponse):
            # Count constructions on the classes themselves (isinstance
            # checks throughout the session must keep working).
            monkeypatch.setattr(
                bid_class, "__init__", counting(bid_class.__init__)
            )
        factory = METHOD_FACTORIES[method_name]

        def make():
            return synthetic_scenario(num_households=50, seed=4, method=factory())

        object_result = FastSession(make(), seed=0, rounds="object").run()
        object_constructions = constructions["count"]
        assert object_constructions > 0  # the oracle pays per-round objects
        constructions["count"] = 0
        array_result = FastSession(make(), seed=0, rounds="array").run()
        assert constructions["count"] == 0
        assert_array_equivalent(object_result, array_result)
