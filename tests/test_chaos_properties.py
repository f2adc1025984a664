"""Chaos suite: the negotiation runtime under deterministic fault injection.

Four contracts, pinned across the engine backends:

* **Zero-rate identity** — a :class:`~repro.runtime.faults.FaultPlan` whose
  rates are all zero is indistinguishable from disabled injection: identical
  summaries, identical per-customer outcomes, ``degraded_households == 0``.
  The chaos machinery itself must never perturb fault-free results.
* **One fault model** — the object backend's bus and the batched backends
  take their message and crash faults from the same per-round customer
  masks, so under any plan the object oracle and ``vectorized`` agree bit
  for bit: summaries, per-customer outcomes, degraded households and the
  injected-fault counters.
* **Graceful degradation** — under arbitrary fault plans (random rates,
  seeds and deadlines via hypothesis) a run never crashes, still reports an
  outcome for *every* customer, keeps its surplus/reward accounting
  self-consistent, and is bit-reproducible from the same plan.
* **Shard recovery** — injected shard-worker failures are recovered (inline
  retry, then the per-customer oracle decomposition) bit-identically to the
  fault-free run, with every recovery recorded in the diagnostics.

The suite carries the ``chaos`` marker so CI can run it standalone
(``pytest -m chaos``); it is small enough to stay in tier-1 as well.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, FaultPlan, campaign, run, scenario
from repro.core.fast_session import FastSession
from repro.core.session import NegotiationSession
from repro.core.sharded_session import ShardedSession
from repro.core.modes import validate_shard_count
from repro.core.scenario import synthetic_scenario
from repro.desire.errors import DesireError, UnknownAgentError
from repro.experiments.campaign_bench import CONDITION_CYCLE, build_campaign_planner
import numpy as np

from repro.runtime.faults import FaultInjector
from repro.runtime.messaging import Message, MessageBus, Performative

pytestmark = pytest.mark.chaos

#: One scenario shared by every example: hypothesis tests must not rebuild
#: populations per draw, and sessions never mutate their scenario.
CHAOS_SCENARIO = synthetic_scenario(num_households=16, seed=3)

rates = st.floats(min_value=0.0, max_value=0.3)
fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    message_drop_rate=rates,
    message_delay_rate=rates,
    crash_rate=rates,
    max_send_attempts=st.integers(min_value=1, max_value=4),
    message_delay_rounds=st.integers(min_value=1, max_value=4),
    bid_deadline_rounds=st.integers(min_value=1, max_value=4),
)


def run_with_plan(backend: str, plan: FaultPlan | None):
    config = EngineConfig(fault_plan=plan) if plan is not None else EngineConfig()
    return run(CHAOS_SCENARIO, backend=backend, config=config)


def assert_equivalent_ignoring_metadata(result, reference):
    """Bit-identity on everything the backends promise (metadata may differ:
    a zero-rate chaos run legitimately records its fault report)."""
    assert result.summary() == reference.summary()
    assert result.customer_outcomes == reference.customer_outcomes
    assert result.degraded_households == reference.degraded_households


class TestZeroRateIdentity:
    """A zero-rate plan takes the exact code paths of disabled injection."""

    @pytest.mark.parametrize("backend", ["object", "vectorized", "sharded"])
    def test_zero_rate_plan_is_bit_identical_to_no_plan(self, backend):
        reference = run_with_plan(backend, None)
        chaos = run_with_plan(backend, FaultPlan(seed=99))
        assert_equivalent_ignoring_metadata(chaos, reference)
        assert chaos.degraded_households == 0
        injected = chaos.metadata["faults"]["injected"]
        assert all(count == 0 for count in injected.values())

    def test_zero_rate_plan_reports_itself(self):
        result = run_with_plan("object", FaultPlan(seed=7))
        assert result.metadata["faults"]["plan"]["seed"] == 7
        assert not FaultPlan(seed=7).enabled


class TestChaosProperties:
    """Random fault plans: degrade, never crash, keep the books straight."""

    @given(plan=fault_plans, backend=st.sampled_from(["object", "vectorized"]))
    @settings(max_examples=15, deadline=None)
    def test_no_crash_and_outcome_completeness(self, plan, backend):
        result = run_with_plan(backend, plan)
        # Every customer gets an outcome, degraded or not.
        expected = {spec.customer_id for spec in CHAOS_SCENARIO.population.specs}
        assert set(result.customer_outcomes) == expected
        assert 0 <= result.degraded_households <= len(expected)
        # Surplus/reward accounting stays self-consistent under faults.
        outcomes = result.customer_outcomes.values()
        assert result.total_reward_paid == pytest.approx(
            sum(o.reward for o in outcomes)
        )
        assert result.total_customer_surplus == pytest.approx(
            sum(o.surplus for o in outcomes)
        )
        for outcome in outcomes:
            if not outcome.awarded:
                assert outcome.reward == 0.0
        # The plan and every injected fault are on the record.
        report = result.metadata["faults"]
        assert report["plan"] == plan.as_dict()
        assert all(count >= 0 for count in report["injected"].values())

    @given(plan=fault_plans)
    @settings(max_examples=8, deadline=None)
    def test_chaos_runs_are_reproducible(self, plan):
        first = run_with_plan("object", plan)
        second = run_with_plan("object", plan)
        assert first.summary() == second.summary()
        assert first.customer_outcomes == second.customer_outcomes
        assert first.metadata["faults"] == second.metadata["faults"]

    def test_fixed_chaos_plan_degrades_without_aborting(self):
        plan = FaultPlan(
            seed=3, message_drop_rate=0.15, message_delay_rate=0.1, crash_rate=0.05
        )
        result = run_with_plan("object", plan)
        injected = result.metadata["faults"]["injected"]
        assert injected["agent_crashes"] > 0
        assert result.degraded_households > 0
        assert len(result.customer_outcomes) == 16


class TestOneFaultModel:
    """The object oracle and the batched fast path inject the same faults."""

    @given(plan=fault_plans)
    @settings(max_examples=25, deadline=None)
    def test_object_matches_vectorized(self, plan):
        oracle = run_with_plan("object", plan)
        result = run_with_plan("vectorized", plan)
        assert result.summary() == oracle.summary()
        assert result.customer_outcomes == oracle.customer_outcomes
        assert result.degraded_households == oracle.degraded_households
        assert (
            result.metadata["faults"]["injected"]
            == oracle.metadata["faults"]["injected"]
        )
        # Round bid tables match in population order, delayed bids included.
        assert len(result.record.rounds) == len(oracle.record.rounds)
        for expected, actual in zip(oracle.record.rounds, result.record.rounds):
            assert list(actual.bids.items()) == list(expected.bids.items())

    def test_message_fates_follow_the_round_masks(self):
        plan = FaultPlan(
            seed=5,
            message_drop_rate=0.6,
            message_delay_rate=0.5,
            crash_rate=0.4,
            max_send_attempts=1,
        )
        names = [f"customer_agent_{index}" for index in range(24)]
        injector = FaultInjector(plan)
        injector.bind_customers(names)
        reference = FaultInjector(plan)
        masks = reference.customer_round_masks(len(names), 2)

        def fate(performative, sender, receiver):
            return injector.message_fate(
                Message(
                    sender=sender,
                    receiver=receiver,
                    performative=performative,
                    round_number=2,
                )
            )

        for position, name in enumerate(names):
            announce = fate(Performative.ANNOUNCE, "utility_agent", name)
            if masks.announce_lost[position]:
                assert announce == "dropped"
            elif masks.crashed[position]:
                assert announce == "unprocessed"
            else:
                assert announce == "delivered"
            bid = fate(Performative.BID, name, "utility_agent")
            if masks.bid_lost[position]:
                assert bid == "dropped"
            elif masks.delayed[position]:
                assert bid == "delayed"
            else:
                assert bid == "delivered"
            # Awards and other traffic are never faulted.
            assert fate(Performative.AWARD, "utility_agent", name) == "delivered"
        # The round's masks were drawn once, however many messages asked.
        assert injector.counters == reference.counters
        for kind in ("crashed", "announce_lost", "bid_lost", "delayed"):
            assert getattr(masks, kind).any(), f"vacuous: no {kind} customer"


class TestShardRecovery:
    """Injected shard failures recover bit-identically to the fault-free run."""

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_recovered_run_is_bit_identical(self, rate):
        reference = run(
            CHAOS_SCENARIO, backend="sharded", config=EngineConfig(shards=2)
        )
        chaos = run(
            CHAOS_SCENARIO,
            backend="sharded",
            config=EngineConfig(
                shards=2, fault_plan=FaultPlan(seed=5, shard_failure_rate=rate)
            ),
        )
        assert_equivalent_ignoring_metadata(chaos, reference)
        recoveries = chaos.metadata["faults"]["shard_recoveries"]
        assert recoveries, "a rate this high must have injected failures"
        assert {event["stage"] for event in recoveries} <= {"inline_retry", "oracle"}
        injected = chaos.metadata["faults"]["injected"]
        assert injected["shard_failures_injected"] == len(recoveries) + injected[
            "shard_oracle_fallbacks"
        ]

    def test_rate_one_exhausts_retries_into_the_oracle(self):
        chaos = run(
            CHAOS_SCENARIO,
            backend="sharded",
            config=EngineConfig(
                shards=2, fault_plan=FaultPlan(seed=5, shard_failure_rate=1.0)
            ),
        )
        injected = chaos.metadata["faults"]["injected"]
        assert injected["shard_inline_retries"] == 0
        assert injected["shard_oracle_fallbacks"] > 0


class TestUnknownAgentError:
    def test_send_to_unregistered_receiver(self):
        bus = MessageBus()
        bus.register("utility")
        with pytest.raises(UnknownAgentError) as excinfo:
            bus.send(
                Message(
                    sender="utility", receiver="ghost", performative=Performative.INFORM
                )
            )
        error = excinfo.value
        assert error.agent_name == "ghost"
        assert error.registered_count == 1
        assert "ghost" in str(error)
        # Dual inheritance keeps historical KeyError handling working.
        assert isinstance(error, KeyError)
        assert isinstance(error, DesireError)

    def test_mailbox_lookup_names_the_agent(self):
        bus = MessageBus()
        with pytest.raises(UnknownAgentError, match="0 agents registered"):
            bus.mailbox("nobody")


class TestConfigValidation:
    def test_engine_config_rejects_bad_shard_knobs(self):
        with pytest.raises(ValueError, match="positive worker count"):
            EngineConfig(shards=0)
        with pytest.raises(ValueError, match="FaultPlan"):
            EngineConfig(fault_plan={"seed": 1})

    def test_validators_accept_canonical_values(self):
        assert validate_shard_count(None) is None
        assert validate_shard_count(4) == 4

    def test_fault_plan_validates_rates_and_budgets(self):
        with pytest.raises(ValueError, match="message_drop_rate"):
            FaultPlan(message_drop_rate=1.5)
        with pytest.raises(ValueError, match="max_send_attempts"):
            FaultPlan(max_send_attempts=0)
        with pytest.raises(ValueError, match="bid_deadline_rounds"):
            FaultPlan(bid_deadline_rounds=0)
        assert FaultPlan(message_drop_rate=0.5, max_send_attempts=2).message_loss_rate == 0.25

    def test_round_masks_are_order_independent(self):
        plan = FaultPlan(
            seed=11, message_drop_rate=0.5, message_delay_rate=0.5, crash_rate=0.5
        )

        def masks(injector, round_number):
            faults = injector.customer_round_masks(32, round_number)
            return (faults.crashed, faults.announce_lost, faults.bid_lost, faults.delayed)

        injector = FaultInjector(plan)
        first = masks(injector, 4)  # round 4 drawn first
        masks(injector, 99)
        again = masks(injector, 4)  # ... again after another round
        later = FaultInjector(plan)
        for other in (0, 9, 2):
            masks(later, other)  # unrelated rounds drawn before
        after_others = masks(later, 4)
        fresh = masks(FaultInjector(plan), 4)
        for drawn in (again, after_others, fresh):
            for expected, mask in zip(first, drawn):
                assert np.array_equal(mask, expected)
        assert all(mask.any() for mask in first)


class TestChaosCampaignSmoke:
    """The CI chaos stage: a fixed-seed fault plan over a 300-household campaign."""

    def test_campaign_survives_fixed_fault_plan(self):
        plan = FaultPlan(
            seed=17, message_drop_rate=0.1, message_delay_rate=0.1, crash_rate=0.03
        )
        result = campaign(
            build_campaign_planner(300, seed=7),
            4,
            conditions=CONDITION_CYCLE,
            config=EngineConfig(fault_plan=plan),
            warmup_days=2,
            seed=7,
        )
        assert result.num_days == 4
        assert "failed_day" not in result.metadata
        for day in result.days:
            if day.outcome is not None and day.outcome.negotiation is not None:
                report = day.outcome.negotiation.metadata["faults"]
                assert report["plan"]["seed"] == 17
