"""Deterministic fault injection for the negotiation runtime.

The paper's agents negotiate over an unreliable distributed substrate; this
module supplies the *unreliability* — reproducibly.  A :class:`FaultPlan` is a
frozen description of which faults to inject at which rates, and a
:class:`FaultInjector` turns the plan into concrete fault decisions that
depend only on ``(plan.seed, fault kind, round, position)``.  Two runs with
the same plan therefore inject exactly the same faults, which is what makes
chaos regressions debuggable and the chaos test-suite deterministic.

**One fault model.**  Message and crash faults are drawn once per
negotiation round by :meth:`FaultInjector.customer_round_masks`: boolean
masks over the customer population, from a ``numpy`` generator keyed on
``(seed, stream, round)``.  The batched backends apply a round's masks to the
whole announcement/bid exchange at once.  On the object backend the injector
decides each announcement's and bid's fate on the bus from the same row,
indexed by the customer's population position.  Both backends thus inject
the same faults, degrade the same customers and count the same traffic.

**Zero-rate identity.**  Every draw is gated on its rate: a plan whose rates
are all ``0.0`` draws nothing, mutates nothing and takes the exact same code
paths as a run with injection disabled, so the chaos machinery itself cannot
perturb fault-free results.  That is the oracle contract the chaos suite pins
(see ``tests/test_chaos_properties.py``).

Fault surfaces
--------------
``message_drop_rate`` / ``max_send_attempts``
    A message is lost when all ``max_send_attempts`` delivery attempts fail,
    i.e. with probability :attr:`FaultPlan.message_loss_rate`.  A lost
    announcement never reaches its customer; a lost bid never reaches the
    Utility Agent.  Neither counts as traffic.
``message_delay_rate``
    A bid is held ``message_delay_rounds`` simulation rounds.  The Utility
    Agent waits ``bid_deadline_rounds`` for missing bids, so a delay degrades
    the round exactly when ``message_delay_rounds > bid_deadline_rounds``.
``crash_rate``
    A customer agent crash-stops for one negotiation round: the announcement
    reaches it (and counts as traffic) but is never processed, so it sends
    no bid and its negotiation state does not advance.
``shard_failure_rate``
    A sharded-session worker raises mid-kernel; the session recovers via
    inline retry, then a per-customer oracle decomposition
    (see :class:`~repro.agents.sharded.ShardedPopulation`).

Awards, rejections and the producer, world and resource-consumer traffic are
never faulted.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from repro.runtime.messaging import Message, Performative

__all__ = ["FaultPlan", "FaultInjector", "InjectedShardFault", "RoundFaults"]


#: Stream tag keeping the per-round mask draws independent of the
#: digest-based shard-failure draws.
_STREAM_FAST_PATH = 101


class InjectedShardFault(RuntimeError):
    """Raised inside a shard worker when the plan injects a shard failure."""


def _canonical_seed(seed: int) -> int:
    """A non-negative 32-bit seed word for :class:`numpy.random.SeedSequence`."""
    return int(seed) & 0xFFFFFFFF


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of the faults to inject into one run.

    All rates are probabilities in ``[0, 1]`` and default to ``0.0`` (no
    injection).  The plan is frozen and hashable so it can ride inside the
    frozen :class:`~repro.api.config.EngineConfig`.

    Attributes
    ----------
    seed:
        Root seed of every fault decision; two runs with equal plans inject
        identical faults.
    message_drop_rate:
        Probability that one delivery *attempt* of an announcement or a bid
        fails (transient).
    message_delay_rate:
        Per-round probability that a customer's bid is held
        ``message_delay_rounds`` simulation rounds before reaching the
        Utility Agent.
    crash_rate:
        Per-round probability that a customer agent crash-stops for the
        negotiation round.
    shard_failure_rate:
        Per-kernel-call probability that a shard worker raises.
    max_send_attempts:
        Delivery attempts per message; a message is lost only when all of
        them fail (:attr:`message_loss_rate`).
    message_delay_rounds:
        How many simulation rounds a delayed bid is held.
    bid_deadline_rounds:
        How many simulation rounds the Utility Agent waits for missing bids
        before evaluating the round without them (protocol-level
        degradation).  A delay is absorbed when it is at most this long and
        degrades the round when ``message_delay_rounds`` exceeds it.
    """

    seed: int = 0
    message_drop_rate: float = 0.0
    message_delay_rate: float = 0.0
    crash_rate: float = 0.0
    shard_failure_rate: float = 0.0
    max_send_attempts: int = 3
    message_delay_rounds: int = 2
    bid_deadline_rounds: int = 3

    def __post_init__(self) -> None:
        for name in (
            "message_drop_rate",
            "message_delay_rate",
            "crash_rate",
            "shard_failure_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_send_attempts < 1:
            raise ValueError(
                f"max_send_attempts must be at least 1, got {self.max_send_attempts}"
            )
        if self.message_delay_rounds < 1:
            raise ValueError(
                f"message_delay_rounds must be at least 1, got {self.message_delay_rounds}"
            )
        if self.bid_deadline_rounds < 1:
            raise ValueError(
                f"bid_deadline_rounds must be at least 1, got {self.bid_deadline_rounds}"
            )

    # -- derived views -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any fault kind has a non-zero rate."""
        return (
            self.message_drop_rate > 0
            or self.message_delay_rate > 0
            or self.crash_rate > 0
            or self.shard_failure_rate > 0
        )

    @property
    def message_loss_rate(self) -> float:
        """Probability that all ``max_send_attempts`` attempts of a message fail."""
        return self.message_drop_rate ** self.max_send_attempts

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass
class RoundFaults:
    """The fault masks of one negotiation round's announcement/bid exchange.

    One boolean entry per customer, population order.  ``suppressed``
    customers never processed the announcement (crashed, or the announcement
    was lost) — their negotiation state must not advance.  ``undelivered``
    additionally covers bids that were sent but never reached the Utility
    Agent in time; those customers' state advanced, but the round treats
    them as silent rejects (zero cut-down).
    """

    crashed: np.ndarray
    announce_lost: np.ndarray
    bid_lost: np.ndarray
    delayed: np.ndarray
    delay_rounds: int
    deadline_rounds: int

    @cached_property
    def suppressed(self) -> np.ndarray:
        """Customers whose agent never processed this round's announcement."""
        return self.crashed | self.announce_lost

    @cached_property
    def undelivered(self) -> np.ndarray:
        """Customers contributing no bid to this round's evaluation."""
        lost = self.suppressed | self.bid_lost
        if self.delay_rounds > self.deadline_rounds:
            # A delayed bid misses the Utility Agent's bid deadline.
            lost = lost | self.delayed
        return lost

    @property
    def wait_rounds(self) -> int:
        """Simulation rounds from the announcement to the round's evaluation.

        The Utility Agent evaluates on the next round when every bid is in,
        waits out the bid deadline when any bid never arrives, and otherwise
        waits for the delayed bids the deadline absorbs.
        """
        if self.undelivered.any():
            return self.deadline_rounds
        return self.delay_rounds if self.delayed.any() else 1


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic fault decisions.

    Message and crash faults come from :meth:`customer_round_masks`, drawn
    from a fresh ``numpy`` generator keyed on ``(seed, stream, round)``, so
    a round's masks do not depend on which rounds were drawn before.  The
    batched sessions call it once per exchange; on the object backend
    :meth:`message_fate` draws it once per negotiation round and reads each
    announcement's and bid's fate from the customer's position in it.  Shard
    failures are digest-based: each is a pure function of
    ``(seed, call, shard, attempt)``.  Counters of every injected fault
    accumulate into :meth:`report`, which sessions attach to
    ``NegotiationResult.metadata["faults"]``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: dict[str, int] = {
            "messages_dropped": 0,
            "messages_delayed": 0,
            "agent_crashes": 0,
            "shard_failures_injected": 0,
            "shard_inline_retries": 0,
            "shard_oracle_fallbacks": 0,
        }
        #: Object backend: customer agent name -> population position.
        self._positions: dict[str, int] = {}
        #: Object backend: the latest negotiation round and its masks.
        self._round: Optional[tuple[int, RoundFaults]] = None

    # -- sub-system gates --------------------------------------------------------

    @property
    def customer_faults(self) -> bool:
        """Whether message or crash faults are on (the per-round masks)."""
        plan = self.plan
        return (
            plan.message_drop_rate > 0
            or plan.message_delay_rate > 0
            or plan.crash_rate > 0
        )

    @property
    def shard_faults(self) -> bool:
        return self.plan.shard_failure_rate > 0

    # -- deterministic draws -----------------------------------------------------

    def _chance(self, *key: object) -> float:
        """A uniform draw in ``[0, 1)`` determined entirely by ``key``.

        blake2b rather than ``hash()``: stable across processes and immune
        to ``PYTHONHASHSEED``, so fault positions replay exactly.
        """
        payload = "|".join(str(part) for part in (self.plan.seed, *key))
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    # -- per-round customer masks ------------------------------------------------

    def customer_round_masks(self, num_customers: int, round_number: int) -> RoundFaults:
        """The plan's message and crash faults for one negotiation round.

        A crash or a lost announcement suppresses the customer's response
        entirely, a lost bid or an over-deadline delay makes the bid miss the
        evaluation.  A delay only degrades when it exceeds the bid deadline —
        shorter delays are absorbed by the deadline.
        """
        plan = self.plan
        rng = np.random.default_rng(
            [_canonical_seed(plan.seed), _STREAM_FAST_PATH, int(round_number)]
        )
        zeros = np.zeros(num_customers, dtype=bool)

        def mask(rate: float) -> np.ndarray:
            # Gated on the rate: a zero-rate kind draws nothing, so disabled
            # and zero-rate plans are indistinguishable draw-for-draw.
            if rate <= 0:
                return zeros
            return rng.random(num_customers) < rate

        crashed = mask(plan.crash_rate)
        loss = plan.message_loss_rate
        announce_lost = mask(loss)
        bid_lost = mask(loss)
        delayed = mask(plan.message_delay_rate)
        faults = RoundFaults(
            crashed=crashed,
            announce_lost=announce_lost,
            bid_lost=bid_lost,
            delayed=delayed,
            delay_rounds=plan.message_delay_rounds,
            deadline_rounds=plan.bid_deadline_rounds,
        )
        self.counters["agent_crashes"] += int(crashed.sum())
        self.counters["messages_dropped"] += int(announce_lost.sum()) + int(
            bid_lost.sum()
        )
        self.counters["messages_delayed"] += int(delayed.sum())
        return faults

    # -- object backend: per-message fates ---------------------------------------

    def bind_customers(self, names: Iterable[str]) -> None:
        """Map customer agent names, in population order, to mask positions."""
        self._positions = {name: position for position, name in enumerate(names)}

    def message_fate(self, message: Message) -> str:
        """The fate of one bus message under its round's customer masks.

        ``"delivered"``; ``"dropped"`` (lost, not counted as traffic);
        ``"delayed"`` (counted, held ``plan.message_delay_rounds`` rounds);
        or ``"unprocessed"`` (counted, but the crashed customer never sees
        it).  Only announcements to and bids from bound customers can fail.
        """
        performative = message.performative
        if performative is Performative.ANNOUNCE:
            position = self._positions.get(message.receiver)
        elif performative is Performative.BID:
            position = self._positions.get(message.sender)
        else:
            return "delivered"
        if position is None:
            return "delivered"
        round_number = message.round_number
        if self._round is None or self._round[0] != round_number:
            # First message of a new negotiation round: draw its masks once,
            # so the counters advance exactly as on the batched backends.
            masks = self.customer_round_masks(len(self._positions), round_number)
            self._round = (round_number, masks)
        faults = self._round[1]
        if performative is Performative.ANNOUNCE:
            if faults.announce_lost[position]:
                return "dropped"
            return "unprocessed" if faults.crashed[position] else "delivered"
        if faults.bid_lost[position]:
            return "dropped"
        return "delayed" if faults.delayed[position] else "delivered"

    # -- sharded path: worker failures -------------------------------------------

    def should_fail_shard(self, call_index: int, shard_index: int, attempt: int) -> bool:
        """Whether kernel call ``call_index`` fails on ``shard_index``.

        ``attempt`` 0 is the pooled run, 1 the inline retry; both draw
        independently so a high rate exercises the full recovery ladder down
        to the per-customer oracle decomposition.
        """
        if not self.shard_faults:
            return False
        if (
            self._chance("shard", call_index, shard_index, attempt)
            < self.plan.shard_failure_rate
        ):
            self.counters["shard_failures_injected"] += 1
            return True
        return False

    def record_shard_recovery(self, stage: str) -> None:
        """Count one successful shard recovery (``inline_retry`` / ``oracle``)."""
        if stage == "inline_retry":
            self.counters["shard_inline_retries"] += 1
        else:
            self.counters["shard_oracle_fallbacks"] += 1

    # -- reporting ----------------------------------------------------------------

    def report(self) -> dict[str, object]:
        """The plan plus every injected-fault counter, for result metadata."""
        return {"plan": self.plan.as_dict(), "injected": dict(self.counters)}
