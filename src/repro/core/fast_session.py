"""The negotiation fast path: vectorized sessions for large populations.

:class:`FastSession` runs the same negotiation as
:class:`~repro.core.session.NegotiationSession` — same announcement methods,
same monotonic concession protocol, same termination conditions — but replaces
the per-customer agent objects and per-delivery message objects with one
:class:`~repro.agents.vectorized.VectorizedPopulation` whose bid decisions are
evaluated in batched numpy calls.  The utility side of each round (overuse
prediction, reward escalation, termination, awards) is delegated to the very
same :class:`~repro.negotiation.methods.base.NegotiationMethod` object the
object path uses, so round-by-round behaviour is identical by construction.

**Equivalence contract.**  For a fixed seed, ``FastSession(scenario).run()``
returns the same rounds, bids, message counts, awards and
:class:`~repro.core.results.NegotiationResult` as
``NegotiationSession(scenario).run()``.  Message *counts* are maintained as
streaming per-performative counters (one announcement and one bid per
customer per round, one award/reject per customer at the end) without
materialising message objects — mirroring the counter semantics of
:class:`~repro.runtime.messaging.MessageBus`.

**When to use which path.**  The object path exercises the full multi-agent
machinery (DESIRE models, resource consumers, producer/world information
flows, message-level traces) and should stay the reference for paper-facing
figures; the fast path is for scale — population sweeps, parameter searches
and the 10k-household scalability trajectory.  It supports the negotiation
core only: no producer agent, no external world, no resource consumers.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.agents.vectorized import VectorizedPopulation
from repro.core.modes import DEFAULT_ROUNDS_MODE, validate_rounds_mode
from repro.core.results import ColumnarOutcomes, CustomerOutcome, NegotiationResult
from repro.core.scenario import Scenario
from repro.negotiation.messages import Award, Bid, CutdownBid, OfferResponse, QuantityBid
from repro.negotiation.methods.base import ArrayRoundEvaluation, RoundEvaluation
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.protocol import (
    ColumnarBids,
    MonotonicConcessionProtocol,
    NegotiationRecord,
    RoundRecord,
)
from repro.negotiation.strategy import (
    ExpectedGainBidding,
    HighestAcceptableCutdownBidding,
)
from repro.negotiation.termination import TerminationReason
from repro.runtime.faults import FaultInjector, FaultPlan, RoundFaults
from repro.runtime.messaging import Performative


class FastSession:
    """Vectorized drop-in for :class:`~repro.core.session.NegotiationSession`.

    Parameters mirror the object path's core configuration.  ``seed`` is kept
    for signature compatibility: the negotiation itself is deterministic (no
    randomness is drawn during a run), exactly as in the object path.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = 0,
        max_simulation_rounds: int = 200,
        check_protocol: bool = True,
        retain_round_bids: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        rounds: str = DEFAULT_ROUNDS_MODE,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.max_simulation_rounds = max_simulation_rounds
        self.check_protocol = check_protocol
        self.fault_plan = fault_plan
        #: Round execution mode.  ``"array"`` (the default) keeps a round's
        #: bids as the numpy state arrays the kernels already compute and runs
        #: the utility side through the methods' array contracts;
        #: ``"object"`` materialises every round's bid objects (the reference
        #: semantics).  Both give bit-identical results, and array rounds
        #: construct no per-round ``Bid`` objects.  The session
        #: falls back to object rounds (recorded in
        #: ``result.metadata["rounds_mode"]``) when the method, its policies
        #: or the population cannot honour the array contract.
        self.rounds = validate_rounds_mode(rounds)
        #: Effective mode for the current run, decided at :meth:`start`.
        self._array_rounds = False
        #: Deterministic chaos: draws the per-round customer fault masks the
        #: object backend's bus applies message by message.
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: Per customer, whether any round was evaluated without their bid.
        self._degraded_ever: Optional[np.ndarray] = None
        #: The last exchange's fault masks (``None`` fault-free).
        self._exchange_faults: Optional[RoundFaults] = None
        #: Whether each RoundRecord keeps its per-customer bids (objects on
        #: object rounds, a copied bid column on array rounds).  The
        #: vectorized counterpart of the bus's log retention: a multi-week
        #: campaign that only reads the accounting rows never looks at them.
        #: Overuse bookkeeping, awards and outcomes are unaffected.
        self.retain_round_bids = retain_round_bids
        self.population: Optional[VectorizedPopulation] = None
        self.protocol: Optional[MonotonicConcessionProtocol] = None
        self.record: Optional[NegotiationRecord] = None
        #: Streaming per-performative counters (mirrors MessageBus semantics).
        self.message_counts: dict[Performative, int] = {}
        self._messages_sent = 0
        self._context = None
        self._has_run = False
        #: Stepwise execution state — see :meth:`start`.  ``run()`` drives
        #: these same steps to completion; a lockstep coordinator (the serving
        #: layer's request coalescer) drives many sessions' steps interleaved.
        self._phase = "new"
        self._result: Optional[NegotiationResult] = None

    # -- construction ------------------------------------------------------------

    def build(self) -> VectorizedPopulation:
        """Instantiate the vectorized population, protocol and record (idempotent).

        Mirrors :meth:`NegotiationSession.build`: calling it more than once
        returns the already-built population instead of resetting negotiation
        state.
        """
        if self.population is not None:
            return self.population
        return self._install_population(
            VectorizedPopulation.from_population(self.scenario.population)
        )

    def _install_population(
        self, population: VectorizedPopulation
    ) -> VectorizedPopulation:
        """Adopt a pre-built population and reset the negotiation bookkeeping.

        The seam that lets a coordinator hand this session a *view* into a
        larger array arena (a :meth:`VectorizedPopulation.slice` of a batch
        of coalesced requests) instead of a privately packed population.  The
        kernels are per-row, so running on a shared-arena slice is
        bit-identical to running on a standalone packing.
        """
        scenario = self.scenario
        self.population = population
        self._context = scenario.population.utility_context()
        self.protocol = MonotonicConcessionProtocol(strict=self.check_protocol)
        self.record = NegotiationRecord(
            conversation_id=f"negotiation_{scenario.name}",
            normal_use=self._context.normal_use,
            initial_overuse=self._context.initial_overuse,
        )
        self.message_counts = {}
        self._messages_sent = 0
        return self.population

    # -- message accounting ------------------------------------------------------

    def _count_messages(self, performative: Performative, count: int) -> None:
        if count <= 0:
            return
        self.message_counts[performative] = (
            self.message_counts.get(performative, 0) + count
        )
        self._messages_sent += count

    def message_count(self) -> int:
        """Total messages the object path would have sent (streaming counter)."""
        return self._messages_sent

    def messages_by_performative(self) -> dict[Performative, int]:
        """Histogram of the messages the object path would have sent."""
        return dict(self.message_counts)

    # -- customer side (batched) ---------------------------------------------------

    def _respond_all(
        self,
        announcement,
        state: dict,
        suppressed: Optional[np.ndarray] = None,
        materialise: bool = True,
    ) -> Optional[list[Bid]]:
        """Every customer's bid for one announcement, in population order.

        Dispatches to the batched kernels for the stock reward-table bidding
        policies, the offer method's yes/no evaluation and the
        request-for-bids method; any other method or policy falls back to
        per-customer scalar ``method.respond`` calls (still message-free, so
        still much faster than the object path).

        ``suppressed`` marks customers that never saw this round's
        announcement (crashed agent or lost message under fault injection):
        their negotiation state does not advance — their entry holds the
        previous round's value, exactly like an object-path agent whose
        mailbox stayed empty.  ``None`` (the fault-free default) leaves every
        code path untouched.

        ``materialise=False`` (array rounds) updates the numpy bid state and
        returns ``None`` without building any ``Bid`` objects — the state
        arrays *are* the round's bids.  The state update itself is identical
        in both modes, so the modes cannot drift.
        """
        population = self.population
        method = self.scenario.method
        round_number = announcement.round_number
        if isinstance(method, RewardTablesMethod):
            candidates = self._cutdown_candidates(announcement)
            previous = state.get("cutdowns")
            if previous is not None:
                candidates = np.maximum(candidates, previous)
            if suppressed is not None and suppressed.any():
                held = previous if previous is not None else np.zeros(len(candidates))
                candidates = np.where(suppressed, held, candidates)
            state["cutdowns"] = candidates
            if not materialise:
                return None
            return [
                CutdownBid(
                    customer=customer,
                    round_number=round_number,
                    cutdown=float(cutdown),
                )
                for customer, cutdown in zip(population.customer_ids, candidates)
            ]
        if isinstance(method, OfferMethod):
            accepts = population.offer_acceptances(announcement, method.peak_hours)
            state["accepts"] = accepts
            if not materialise:
                return None
            return [
                OfferResponse(
                    customer=customer,
                    round_number=round_number,
                    accept=bool(accept),
                )
                for customer, accept in zip(population.customer_ids, accepts)
            ]
        if isinstance(method, RequestForBidsMethod):
            current = state.get("needs")
            if current is None:
                current = population.predicted_uses.copy()
            needs = population.step_quantity_bids(
                current,
                method.step_fraction,
                method.peak_hours,
                announcement.tariff.normal_price,
            )
            if suppressed is not None and suppressed.any():
                needs = np.where(suppressed, current, needs)
            state["needs"] = needs
            if not materialise:
                return None
            return [
                QuantityBid(
                    customer=customer,
                    round_number=round_number,
                    needed_use=float(needed),
                )
                for customer, needed in zip(population.customer_ids, needs)
            ]
        if not materialise:
            # Array rounds are gated on supports_array_rounds(), which is
            # False for anything the stock branches above do not cover.
            raise RuntimeError(
                "array rounds reached the generic respond fallback; "
                f"method {method.name!r} does not support them"
            )
        # Generic fallback: scalar respond per customer, still message-free.
        if "contexts" not in state:
            state["contexts"] = self.scenario.population.customer_contexts()
        contexts = state["contexts"]
        previous_bids = state.get("bids", [None] * len(population))
        if suppressed is None or not suppressed.any():
            bids = [
                method.respond(announcement, context, previous)
                for context, previous in zip(contexts, previous_bids)
            ]
        else:
            bids = [
                previous
                if held
                else method.respond(announcement, context, previous)
                for held, context, previous in zip(suppressed, contexts, previous_bids)
            ]
        state["bids"] = bids
        return bids

    def _cutdown_candidates(self, announcement) -> np.ndarray:
        """Every customer's candidate cut-down for one reward-table round.

        The kernel dispatch behind the reward-table branch of
        :meth:`_respond_all`, isolated so a coalescing coordinator can
        substitute a row slice of a *fused* kernel evaluation computed once
        over several requests' combined population (bit-identical, because
        the kernels are per-row).
        """
        population = self.population
        policy = self.scenario.method.bidding_policy
        policy_type = type(policy)
        if policy_type is HighestAcceptableCutdownBidding:
            return population.highest_acceptable_cutdowns(announcement.table)
        if policy_type is ExpectedGainBidding:
            return population.expected_gain_cutdowns(announcement.table)
        return np.array(
            [
                policy.choose_cutdown(announcement.table, requirements, None)
                for requirements in population.requirements
            ]
        )

    def _check_bid_concession(
        self, bids: list[Bid], previous: Optional[list[Bid]]
    ) -> None:
        """Vectorized stand-in for the protocol's per-bid concession check."""
        if previous is None:
            return
        if self.fault_injector is None:
            # Fault-free, both lists cover the full population in order, so
            # the positional pairing is exact (and cheap on the hot path).
            pairs = zip(previous, bids)
        else:
            # Under degradation either round may be missing customers; match
            # by customer so partial rounds never compare strangers.
            earlier_by_customer = {
                bid.customer: bid for bid in previous if isinstance(bid, CutdownBid)
            }
            pairs = (
                (earlier_by_customer.get(bid.customer), bid)
                for bid in bids
                if isinstance(bid, CutdownBid)
            )
        for earlier, current in pairs:
            if (
                isinstance(earlier, CutdownBid)
                and isinstance(current, CutdownBid)
                and current.cutdown < earlier.cutdown
            ):
                self.protocol._record_violation(
                    f"customer {current.customer!r} retreated from cut-down "
                    f"{earlier.cutdown} to {current.cutdown}"
                )

    # -- fault-aware exchange -------------------------------------------------------

    def _round_faults(self, announcement) -> Optional[RoundFaults]:
        """Draw one exchange's fault masks and book its traffic.

        Returns ``None`` fault-free (or with a zero-rate plan): every
        announcement and bid is then delivered and counted, exactly as on
        the object backend's bus.  Otherwise the masks decide, as they do
        there: lost announcements, and bids never sent (suppressed
        customer) or lost, are not traffic; delayed bids were sent and
        count.
        """
        population_size = len(self.population)
        injector = self.fault_injector
        if injector is None or not injector.customer_faults:
            self._count_messages(Performative.ANNOUNCE, population_size)
            self._count_messages(Performative.BID, population_size)
            self._exchange_faults = None
            return None
        faults = injector.customer_round_masks(
            population_size, announcement.round_number
        )
        suppressed = faults.suppressed
        self._count_messages(
            Performative.ANNOUNCE, population_size - int(faults.announce_lost.sum())
        )
        self._count_messages(
            Performative.BID,
            population_size
            - int(suppressed.sum())
            - int((faults.bid_lost & ~suppressed).sum()),
        )
        self._exchange_faults = faults
        return faults

    def _exchange(self, announcement, state: dict) -> tuple[list[Bid], list[Bid]]:
        """One announcement → bids exchange: ``(all_bids, delivered_bids)``.

        ``all_bids`` has one entry per customer (the population-order bid
        state, used for final-bid reporting); ``delivered_bids`` is the
        subset that actually reached the utility side in time and enters the
        round evaluation.  Fault-free the two are the same list.
        """
        faults = self._round_faults(announcement)
        if faults is None:
            bids = self._respond_all(announcement, state)
            return bids, bids
        bids = self._respond_all(announcement, state, suppressed=faults.suppressed)
        delivered = [
            bid
            for bid, lost in zip(bids, faults.undelivered)
            if not lost and bid is not None
        ]
        return bids, delivered

    def _exchange_arrays(self, announcement, state: dict) -> Optional[np.ndarray]:
        """Array-round sibling of :meth:`_exchange`: bids stay numpy state.

        Advances the bid-state arrays (via ``_respond_all(materialise=False)``)
        and returns the round's ``undelivered`` mask — ``None`` on the
        fault-free path, where every bid reaches the utility side.  The masks
        come from the same :meth:`_round_faults` draw, so an array run and an
        object run of the same plan see identical faults.
        """
        faults = self._round_faults(announcement)
        if faults is None:
            self._respond_all(announcement, state, materialise=False)
            return None
        self._respond_all(
            announcement, state, suppressed=faults.suppressed, materialise=False
        )
        return faults.undelivered

    # -- execution -----------------------------------------------------------------
    #
    # The run loop is a three-phase state machine so that a coordinator can
    # interleave many sessions in lockstep (the serving layer's request
    # coalescing) while ``run()`` remains the single-session driver:
    #
    #   start() ── trivial overuse ──────────────────────────────▶ "done"
    #      │
    #      ▼
    #   "exchange"  ──step_exchange()──▶  "advance"  ──step_advance()──▶ ...
    #      ▲                                  │
    #      └──── next announcement ───────────┘        (loop exit → "done")
    #
    # Each step performs exactly the operations of the former monolithic loop
    # in the same order, so the refactor is behaviour-preserving by
    # construction (and pinned by the object-path equivalence suite).

    @property
    def phase(self) -> str:
        """Stepwise execution phase: ``new``, ``exchange``, ``advance`` or ``done``."""
        return self._phase

    @property
    def result(self) -> Optional[NegotiationResult]:
        """The collected result once :attr:`phase` is ``"done"``, else ``None``."""
        return self._result

    @property
    def pending_announcement(self):
        """The announcement awaiting its bid exchange (``phase == "exchange"``)."""
        return self._announcement if self._phase == "exchange" else None

    def rounds_completed(self) -> int:
        """Evaluated negotiation rounds so far (progress observability)."""
        return len(self.record.rounds) if self.record is not None else 0

    def start(self) -> None:
        """Begin stepwise execution: build, guard re-runs, open round 1.

        Ends in phase ``"exchange"`` (the initial announcement awaits its
        bids) or — when the initial overuse is already acceptable — directly
        in ``"done"`` with :attr:`result` populated, mirroring the object
        path's Utility Agent finishing in its first step.
        """
        if self._has_run:
            raise RuntimeError(
                "this FastSession already ran; create a new session to "
                "negotiate again"
            )
        self._has_run = True
        population = self.build()
        context = self._context
        if context is None:
            raise RuntimeError("FastSession.build() did not produce a utility context")
        num_customers = len(population)
        self._state: dict = {}
        self._previous_delivered: Optional[list[Bid]] = None
        self._round_number = 0
        self._simulation_rounds = 1
        self._awards: dict[str, Award] = {}
        self._finished = False
        self._bids: list[Bid] = []
        self._delivered: list[Bid] = []
        # Array-round state: the pending undelivered mask, the previous
        # round's (cut-down state, undelivered) pair for the concession
        # check, and the final (accepted, committed, rewards) award columns.
        self._array_rounds = self.rounds == "array" and self._array_rounds_applicable()
        self._undelivered: Optional[np.ndarray] = None
        self._previous_array_round: Optional[
            tuple[Optional[np.ndarray], Optional[np.ndarray]]
        ] = None
        self._award_arrays: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None

        if context.initial_overuse <= context.max_allowed_overuse:
            # The object path's Utility Agent finishes in its first step
            # without sending anything (one simulation round elapses).
            self.record.final_overuse = context.initial_overuse
            self.record.termination_reason = TerminationReason.OVERUSE_ACCEPTABLE
            self._result = self._collect_result(
                awards={}, final_bids=[None] * num_customers, simulation_rounds=1
            )
            self._phase = "done"
            return

        # Simulation round 1: initial announcement broadcast + every bid.
        self._announcement = self.scenario.method.initial_announcement(context)
        self.protocol.record_announcement(self._announcement)
        self._phase = "exchange"

    def _array_rounds_applicable(self) -> bool:
        """Whether this run can honour the array-round contract exactly."""
        method = self.scenario.method
        supports = getattr(method, "supports_array_rounds", None)
        return (
            supports is not None
            and supports()
            and self.population is not None
            and self.population.is_vectorizable
        )

    def step_exchange(self) -> None:
        """Run the pending announcement's bid exchange (phase ``exchange``)."""
        if self._phase != "exchange":
            raise RuntimeError(f"no exchange pending (phase {self._phase!r})")
        if self._array_rounds:
            self._undelivered = self._exchange_arrays(self._announcement, self._state)
        else:
            self._bids, self._delivered = self._exchange(self._announcement, self._state)
        self._phase = "advance"

    def step_advance(self) -> None:
        """One utility-side step: evaluate the last exchange, finish or announce.

        Mirrors one iteration of the former ``run()`` loop, including its
        entry condition: when the round budget is exhausted or awards already
        went out, the result is collected and the phase becomes ``"done"``.
        """
        if self._phase != "advance":
            raise RuntimeError(f"nothing to advance (phase {self._phase!r})")
        faults = self._exchange_faults
        wait = faults.wait_rounds if faults is not None else 1
        if self._finished or self._simulation_rounds + wait > self.max_simulation_rounds:
            if not self._finished:
                # The budget ran out before the evaluation: the object
                # backend's simulation still steps every round it may.
                self._simulation_rounds = max(
                    self._simulation_rounds, self.max_simulation_rounds
                )
            self._result = self._collect_result(
                self._awards, list(self._bids), self._simulation_rounds
            )
            self._phase = "done"
            return
        # The evaluation happens once the Utility Agent has every bid it
        # will get: one simulation round later, or after waiting out faults.
        self._simulation_rounds += wait
        if faults is not None:
            # Only an evaluated round degrades the customers it misses.
            if self._degraded_ever is None:
                self._degraded_ever = np.zeros(len(self.population), dtype=bool)
            self._degraded_ever |= faults.undelivered
        if self._array_rounds:
            self._advance_arrays()
            return
        # Evaluate the previous exchange and either finish (awards go out)
        # or announce the next round.
        context = self._context
        method = self.scenario.method
        announcement = self._announcement
        round_number = self._round_number
        self._check_bid_concession(self._delivered, self._previous_delivered)
        bids_by_customer = {bid.customer: bid for bid in self._delivered}
        evaluation = method.evaluate_round(
            context, announcement, bids_by_customer, round_number
        )
        self.record.rounds.append(
            RoundRecord(
                round_number=round_number,
                announcement=announcement,
                bids=dict(bids_by_customer) if self.retain_round_bids else {},
                predicted_overuse_before=(
                    context.initial_overuse
                    if round_number == 0
                    else self.record.rounds[-1].predicted_overuse_after
                ),
                predicted_overuse_after=evaluation.predicted_overuse,
            )
        )
        if evaluation.termination is not None:
            self._awards = self._finish(
                evaluation, announcement, bids_by_customer, round_number,
                evaluation.termination,
            )
            self._finished = True
            return
        next_announcement = method.next_announcement(
            context, announcement, evaluation, round_number
        )
        if next_announcement is None:
            self._awards = self._finish(
                evaluation, announcement, bids_by_customer, round_number,
                TerminationReason.REWARD_SATURATED,
            )
            self._finished = True
            return
        self.protocol.record_announcement(next_announcement)
        self._announcement = next_announcement
        self._round_number += 1
        self._previous_delivered = self._delivered
        self._phase = "exchange"

    # -- array rounds ---------------------------------------------------------------

    def _array_bid_state(self) -> tuple[np.ndarray, type]:
        """The numpy column holding this round's bids and the bid type it encodes."""
        method = self.scenario.method
        if isinstance(method, RewardTablesMethod):
            return self._state["cutdowns"], CutdownBid
        if isinstance(method, OfferMethod):
            return self._state["accepts"], OfferResponse
        return self._state["needs"], QuantityBid

    def _retained_bids(
        self,
        announcement,
        bid_state: np.ndarray,
        bid_type: type,
        undelivered: Optional[np.ndarray],
    ) -> Mapping[str, Bid]:
        """The round's delivered bids as a lazy view over copied columns.

        Empty when bid retention is off.  The copies decouple the record from
        the session's live bid state, so the view reads the same values
        however the kernels reuse arrays.
        """
        if not self.retain_round_bids:
            return {}
        return ColumnarBids(
            customer_ids=self.population.customer_ids,
            round_number=announcement.round_number,
            bid_type=bid_type,
            column=bid_state.copy(),
            undelivered=undelivered.copy() if undelivered is not None else None,
        )

    def _check_concession_arrays(self, undelivered: Optional[np.ndarray]) -> None:
        """Array sibling of :meth:`_check_bid_concession`.

        Only reward-table rounds carry cut-down bids the monotonic-concession
        protocol inspects; rows are paired by position (population order), and
        a row undelivered in either round is skipped, exactly like the object
        path's by-customer matching of partial rounds.  The kernels hold each
        customer at ``max(candidate, previous)``, so the violation branch is
        cold by construction — it exists for behaviour parity.
        """
        if not isinstance(self.scenario.method, RewardTablesMethod):
            return
        if self._previous_array_round is None:
            return
        previous_cutdowns, previous_undelivered = self._previous_array_round
        current = self._state.get("cutdowns")
        if current is None or previous_cutdowns is None:
            return
        retreated = current < previous_cutdowns
        if undelivered is not None:
            retreated &= ~undelivered
        if previous_undelivered is not None:
            retreated &= ~previous_undelivered
        if not retreated.any():
            return
        customer_ids = self.population.customer_ids
        for index in np.flatnonzero(retreated):
            self.protocol._record_violation(
                f"customer {customer_ids[index]!r} retreated from cut-down "
                f"{float(previous_cutdowns[index])} to {float(current[index])}"
            )

    def _advance_arrays(self) -> None:
        """Array sibling of the :meth:`step_advance` round evaluation.

        Same order of operations — concession check, round evaluation, round
        record, finish-or-announce — with the round's bids living only as the
        numpy state arrays.  With bid retention on, the round record keeps a
        :class:`~repro.negotiation.protocol.ColumnarBids` view that equals the
        object round's bid dict; no ``Bid`` is built unless it is read.
        """
        context = self._context
        method = self.scenario.method
        announcement = self._announcement
        round_number = self._round_number
        state = self._state
        undelivered = self._undelivered
        self._check_concession_arrays(undelivered)
        bid_state, bid_type = self._array_bid_state()
        evaluation = method.evaluate_round_arrays(
            context, announcement, self.population, bid_state, undelivered, round_number
        )
        self.record.rounds.append(
            RoundRecord(
                round_number=round_number,
                announcement=announcement,
                bids=self._retained_bids(
                    announcement, bid_state, bid_type, undelivered
                ),
                predicted_overuse_before=(
                    context.initial_overuse
                    if round_number == 0
                    else self.record.rounds[-1].predicted_overuse_after
                ),
                predicted_overuse_after=evaluation.predicted_overuse,
            )
        )
        if evaluation.termination is not None:
            self._finish_arrays(
                evaluation, announcement, bid_state, undelivered, round_number,
                evaluation.termination,
            )
            self._finished = True
            return
        next_announcement = method.next_announcement(
            context, announcement, evaluation, round_number
        )
        if next_announcement is None:
            self._finish_arrays(
                evaluation, announcement, bid_state, undelivered, round_number,
                TerminationReason.REWARD_SATURATED,
            )
            self._finished = True
            return
        self.protocol.record_announcement(next_announcement)
        self._announcement = next_announcement
        self._round_number += 1
        self._previous_array_round = (state.get("cutdowns"), undelivered)
        self._phase = "exchange"

    def _finish_arrays(
        self,
        evaluation: ArrayRoundEvaluation,
        announcement,
        bid_state: np.ndarray,
        undelivered: Optional[np.ndarray],
        round_number: int,
        reason: TerminationReason,
    ) -> None:
        """Array sibling of :meth:`_finish`: award columns, no ``Award`` objects."""
        self.record.termination_reason = reason
        self.record.final_overuse = evaluation.predicted_overuse
        method = self.scenario.method
        committed = method.committed_cutdowns_array(
            self._context, self.population, bid_state, undelivered
        )
        rewards = method.rewards_due_array(
            self._context, announcement, self.population, bid_state, undelivered
        )
        accepted = evaluation.accepted_mask
        if accepted is None:
            raise RuntimeError(
                f"method {method.name!r} returned no accepted mask for array rounds"
            )
        self._award_arrays = (
            accepted,
            np.where(accepted, committed, 0.0),
            np.where(accepted, rewards, 0.0),
        )
        accepted_total = int(np.count_nonzero(accepted))
        self._count_messages(Performative.AWARD, accepted_total)
        self._count_messages(
            Performative.REJECT, len(self.population) - accepted_total
        )

    def run(self) -> NegotiationResult:
        """Run the negotiation to completion and return the result.

        One run per session: ``build()`` is idempotent, so a second ``run()``
        would replay rounds into the already-populated record.  Mirrors the
        object path, whose simulation also refuses to run twice.
        """
        self.start()
        while self._phase != "done":
            if self._phase == "exchange":
                self.step_exchange()
            else:
                self.step_advance()
        return self._result

    def _finish(
        self,
        evaluation: RoundEvaluation,
        announcement,
        bids_by_customer: dict[str, Bid],
        round_number: int,
        reason: TerminationReason,
    ) -> dict[str, Award]:
        self.record.termination_reason = reason
        self.record.final_overuse = evaluation.predicted_overuse
        method = self.scenario.method
        context_cutdowns = method.committed_cutdowns(self._context, bids_by_customer)
        rewards = method.rewards_due(self._context, announcement, bids_by_customer)
        awards: dict[str, Award] = {}
        accepted_total = 0
        for customer in self.population.customer_ids:
            accepted = evaluation.accepted_customers.get(customer, False)
            awards[customer] = Award(
                customer=customer,
                accepted=accepted,
                committed_cutdown=context_cutdowns.get(customer, 0.0) if accepted else 0.0,
                reward=rewards.get(customer, 0.0) if accepted else 0.0,
                round_number=round_number,
            )
            accepted_total += 1 if accepted else 0
        self._count_messages(Performative.AWARD, accepted_total)
        self._count_messages(
            Performative.REJECT, len(self.population.customer_ids) - accepted_total
        )
        return awards

    def _collect_result(
        self,
        awards: dict[str, Award],
        final_bids: list[Optional[Bid]],
        simulation_rounds: int,
    ) -> NegotiationResult:
        if self._array_rounds:
            result = self._collect_result_arrays(simulation_rounds)
        else:
            result = self._collect_result_objects(
                awards, final_bids, simulation_rounds
            )
        if self.fault_injector is not None:
            result.metadata["faults"] = self.fault_injector.report()
        # Execution provenance: which round mode actually ran (array requests
        # fall back to object rounds when the contract cannot be honoured)
        # and how the population's kernel cache fared.
        result.metadata["rounds_mode"] = "array" if self._array_rounds else "object"
        result.metadata["kernel_cache"] = dict(self.population.kernel_cache_stats())
        return result

    def _collect_result_arrays(self, simulation_rounds: int) -> NegotiationResult:
        """Columnar result assembly: one outcome view, no per-customer loop.

        Committed cut-downs and rewards are already zeroed outside the
        accepted mask (:meth:`_finish_arrays`), surpluses are masked the same
        way the object path's ``if accepted`` short-cut does, and the total
        reward runs through ``np.cumsum`` — strictly sequential, hence
        bit-identical to the object path's ``total += reward`` loop.
        """
        population = self.population
        num_customers = len(population)
        if self._award_arrays is not None:
            accepted_all, committed_all, rewards_all = self._award_arrays
        else:
            # No awards went out (trivial overuse or exhausted round budget).
            accepted_all = np.zeros(num_customers, dtype=bool)
            committed_all = np.zeros(num_customers, dtype=float)
            rewards_all = np.zeros(num_customers, dtype=float)
        surpluses = population.realised_surpluses(committed_all, rewards_all)
        surpluses = np.where(accepted_all, surpluses, 0.0)
        final_cutdowns = None
        if isinstance(self.scenario.method, RewardTablesMethod):
            final_cutdowns = self._state.get("cutdowns")
        if final_cutdowns is None:
            # Offer responses and quantity bids carry no cut-down attribute;
            # the object path's getattr(last_bid, "cutdown", 0.0) yields 0.0.
            final_cutdowns = np.zeros(num_customers, dtype=float)
        total_reward_paid = (
            float(np.cumsum(rewards_all)[-1]) if num_customers else 0.0
        )
        outcomes = ColumnarOutcomes(
            customer_ids=population.customer_ids,
            final_bid_cutdowns=final_cutdowns,
            awarded=accepted_all,
            committed_cutdowns=committed_all,
            rewards=rewards_all,
            surpluses=surpluses,
        )
        degraded = (
            int(self._degraded_ever.sum()) if self._degraded_ever is not None else 0
        )
        return NegotiationResult(
            scenario_name=self.scenario.name,
            method_name=self.scenario.method.name,
            record=self.record,
            customer_outcomes=outcomes,
            total_reward_paid=total_reward_paid,
            messages_sent=self._messages_sent,
            simulation_rounds=simulation_rounds,
            degraded_households=degraded,
        )

    def _collect_result_objects(
        self,
        awards: dict[str, Award],
        final_bids: list[Optional[Bid]],
        simulation_rounds: int,
    ) -> NegotiationResult:
        population = self.population
        outcomes: dict[str, CustomerOutcome] = {}
        total_reward_paid = 0.0
        num_customers = len(population.customer_ids)
        committed_all = np.zeros(num_customers, dtype=float)
        rewards_all = np.zeros(num_customers, dtype=float)
        accepted_all = np.zeros(num_customers, dtype=bool)
        for index, customer in enumerate(population.customer_ids):
            award = awards.get(customer)
            if award is not None and award.accepted:
                accepted_all[index] = True
                committed_all[index] = award.committed_cutdown
                rewards_all[index] = award.reward
        # One batched surplus evaluation instead of a per-customer scalar
        # interpolation loop; non-accepted rows carry (0, 0) and interpolate
        # to a surplus of exactly 0.0, matching the scalar code's short-cut.
        surpluses = population.realised_surpluses(committed_all, rewards_all)
        for index, customer in enumerate(population.customer_ids):
            last_bid = final_bids[index]
            final_cutdown = getattr(last_bid, "cutdown", 0.0) if last_bid is not None else 0.0
            accepted = bool(accepted_all[index])
            reward = float(rewards_all[index]) if accepted else 0.0
            committed = float(committed_all[index]) if accepted else 0.0
            outcomes[customer] = CustomerOutcome(
                customer=customer,
                final_bid_cutdown=float(final_cutdown),
                awarded=accepted,
                committed_cutdown=float(committed),
                reward=float(reward),
                surplus=float(surpluses[index]) if accepted else 0.0,
            )
            total_reward_paid += reward
        degraded = (
            int(self._degraded_ever.sum()) if self._degraded_ever is not None else 0
        )
        return NegotiationResult(
            scenario_name=self.scenario.name,
            method_name=self.scenario.method.name,
            record=self.record,
            customer_outcomes=outcomes,
            total_reward_paid=total_reward_paid,
            messages_sent=self._messages_sent,
            simulation_rounds=simulation_rounds,
            degraded_households=degraded,
        )
