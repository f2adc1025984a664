"""The Utility Agent (UA).

The Utility Agent drives the negotiation: it predicts the balance between
consumption and production, decides whether a negotiation is warranted,
announces (and escalates) deals according to the configured announcement
method, evaluates the Customer Agents' bids, and finally awards or rejects
them.  Its DESIRE process model (Figures 2 and 3) is attached as
``desire_model``; :meth:`process_round` realises the corresponding tasks at
runtime.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.agents.base import AgentBase
from repro.agents.generic import build_utility_agent_model
from repro.negotiation.messages import Announcement, Award, Bid
from repro.negotiation.methods.base import (
    NegotiationMethod,
    RoundEvaluation,
    UtilityContext,
)
from repro.negotiation.protocol import (
    MonotonicConcessionProtocol,
    NegotiationRecord,
    RoundRecord,
)
from repro.negotiation.termination import TerminationReason
from repro.runtime.messaging import Performative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulation import Simulation


class NegotiationPhase(Enum):
    """The Utility Agent's negotiation state."""

    IDLE = "idle"
    NEGOTIATING = "negotiating"
    FINISHED = "finished"


class UtilityAgent(AgentBase):
    """Negotiates load reductions with a population of Customer Agents."""

    def __init__(
        self,
        context: UtilityContext,
        method: NegotiationMethod,
        customer_agent_names: Sequence[str],
        conversation_id: str = "negotiation_1",
        producer_agent: Optional[str] = None,
        external_world: Optional[str] = None,
        check_protocol: bool = True,
        bid_deadline_rounds: Optional[int] = None,
        name: str = "utility_agent",
    ) -> None:
        super().__init__(name)
        if not customer_agent_names:
            raise ValueError("the Utility Agent needs at least one Customer Agent")
        self.context = context
        self.method = method
        self.customer_agent_names = list(customer_agent_names)
        self._customer_ids = [
            self._customer_id(name) for name in self.customer_agent_names
        ]
        self.conversation_id = conversation_id
        self.producer_agent = producer_agent
        self.external_world = external_world
        self.desire_model = build_utility_agent_model(name)
        self.protocol = MonotonicConcessionProtocol(strict=check_protocol)
        self.record = NegotiationRecord(
            conversation_id=conversation_id,
            normal_use=context.normal_use,
            initial_overuse=context.initial_overuse,
        )
        if bid_deadline_rounds is not None and bid_deadline_rounds < 1:
            raise ValueError(
                f"bid_deadline_rounds must be at least 1, got {bid_deadline_rounds}"
            )
        #: How many simulation rounds to wait for missing bids before
        #: evaluating the round without them.  ``None`` (the default) waits
        #: indefinitely — the fault-free behaviour, where every bid arrives on
        #: the next round anyway.
        self.bid_deadline_rounds = bid_deadline_rounds
        #: Customers whose bid ever missed a round deadline (protocol-level
        #: degradation: they contributed no bid — silent reject — instead of
        #: stalling the negotiation).
        self.degraded_customers: set[str] = set()
        self._rounds_waiting = 0
        self.phase = NegotiationPhase.IDLE
        self.current_round = 0
        self.current_announcement: Optional[Announcement] = None
        self._bids_this_round: dict[str, Bid] = {}
        self._previous_overuse = context.initial_overuse
        self.awards: dict[str, Award] = {}
        self.total_reward_paid = 0.0
        self.world_observations: list[dict[str, object]] = []
        self.producer_reports: list[dict[str, float]] = []

    # -- derived state ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.phase is NegotiationPhase.FINISHED

    @property
    def final_overuse(self) -> Optional[float]:
        return self.record.final_overuse

    # -- behaviour --------------------------------------------------------------------------

    def process_round(self, simulation: "Simulation") -> None:
        self._collect_information(simulation)
        if self.phase is NegotiationPhase.IDLE:
            self._maybe_start_negotiation(simulation)
        elif self.phase is NegotiationPhase.NEGOTIATING:
            self._collect_bids(simulation)
            if self._all_bids_received():
                self._evaluate_and_continue(simulation)
            elif self.bid_deadline_rounds is not None:
                self._rounds_waiting += 1
                if self._rounds_waiting >= self.bid_deadline_rounds:
                    # Deadline expired: the missing customers contribute no
                    # bid this round (zero cut-down, the protocol's silent
                    # reject) instead of stalling the whole negotiation.
                    self.degraded_customers.update(
                        customer
                        for customer in self._customer_ids
                        if customer not in self._bids_this_round
                    )
                    self._evaluate_and_continue(simulation)

    # -- information acquisition (world / producer interaction management) ------------------

    def _collect_information(self, simulation: "Simulation") -> None:
        replies = self.incoming_matching(simulation, Performative.REPLY)
        informs = self.incoming_matching(simulation, Performative.INFORM)
        for message in replies + informs:
            if isinstance(message.content, dict):
                if message.sender == self.producer_agent:
                    self.producer_reports.append(message.content)
                else:
                    self.world_observations.append(message.content)
        if self._steps == 1:
            for source in (self.producer_agent, self.external_world):
                if source and simulation.bus.is_registered(source):
                    self.send(
                        simulation,
                        source,
                        Performative.REQUEST,
                        content={"requested": "status"},
                        conversation_id=self.conversation_id,
                    )

    # -- negotiation control (own process control / agent specific task) ----------------------

    def _maybe_start_negotiation(self, simulation: "Simulation") -> None:
        """Start negotiating when the predicted overuse warrants the effort."""
        if self.context.initial_overuse <= self.context.max_allowed_overuse:
            self.phase = NegotiationPhase.FINISHED
            self.record.final_overuse = self.context.initial_overuse
            self.record.termination_reason = TerminationReason.OVERUSE_ACCEPTABLE
            return
        announcement = self.method.initial_announcement(self.context)
        self.protocol.record_announcement(announcement)
        self.current_announcement = announcement
        self.current_round = 0
        self._bids_this_round = {}
        self._rounds_waiting = 0
        self.phase = NegotiationPhase.NEGOTIATING
        self.broadcast(
            simulation,
            self.customer_agent_names,
            Performative.ANNOUNCE,
            content=announcement,
            conversation_id=self.conversation_id,
            round_number=announcement.round_number,
        )

    # -- bid handling (cooperation management) -------------------------------------------------

    def _collect_bids(self, simulation: "Simulation") -> None:
        messages = self.incoming_matching(simulation, Performative.BID)
        for message in messages:
            bid = message.content
            if not isinstance(bid, Bid):
                continue
            if bid.round_number != self.current_round:
                continue
            self.protocol.record_bid(bid)
            self._bids_this_round[bid.customer] = bid

    def _all_bids_received(self) -> bool:
        return all(customer in self._bids_this_round for customer in self._customer_ids)

    def _customer_id(self, agent_name: str) -> str:
        prefix = "customer_agent_"
        return agent_name[len(prefix):] if agent_name.startswith(prefix) else agent_name

    def _evaluate_and_continue(self, simulation: "Simulation") -> None:
        assert self.current_announcement is not None
        # Bids arrive in delivery order, a delayed bid after the others;
        # population order keeps the round record independent of timing.
        bids = self._bids_this_round
        self._bids_this_round = {
            customer: bids[customer] for customer in self._customer_ids if customer in bids
        }
        evaluation = self.method.evaluate_round(
            self.context, self.current_announcement, self._bids_this_round, self.current_round
        )
        self.record.rounds.append(
            RoundRecord(
                round_number=self.current_round,
                announcement=self.current_announcement,
                bids=dict(self._bids_this_round),
                predicted_overuse_before=self._previous_overuse,
                predicted_overuse_after=evaluation.predicted_overuse,
            )
        )
        self._previous_overuse = evaluation.predicted_overuse
        if evaluation.termination is not None:
            self._finish(simulation, evaluation, evaluation.termination)
            return
        next_announcement = self.method.next_announcement(
            self.context, self.current_announcement, evaluation, self.current_round
        )
        if next_announcement is None:
            self._finish(simulation, evaluation, TerminationReason.REWARD_SATURATED)
            return
        self.protocol.record_announcement(next_announcement)
        self.current_announcement = next_announcement
        self.current_round += 1
        self._bids_this_round = {}
        self._rounds_waiting = 0
        self.broadcast(
            simulation,
            self.customer_agent_names,
            Performative.ANNOUNCE,
            content=next_announcement,
            conversation_id=self.conversation_id,
            round_number=next_announcement.round_number,
        )

    def _finish(
        self,
        simulation: "Simulation",
        evaluation: RoundEvaluation,
        reason: TerminationReason,
    ) -> None:
        assert self.current_announcement is not None
        self.phase = NegotiationPhase.FINISHED
        self.record.termination_reason = reason
        self.record.final_overuse = evaluation.predicted_overuse
        cutdowns = self.method.committed_cutdowns(self.context, self._bids_this_round)
        rewards = self.method.rewards_due(
            self.context, self.current_announcement, self._bids_this_round
        )
        for agent_name in self.customer_agent_names:
            customer = self._customer_id(agent_name)
            accepted = evaluation.accepted_customers.get(customer, False)
            reward = rewards.get(customer, 0.0) if accepted else 0.0
            award = Award(
                customer=customer,
                accepted=accepted,
                committed_cutdown=cutdowns.get(customer, 0.0) if accepted else 0.0,
                reward=reward,
                round_number=self.current_round,
            )
            self.awards[customer] = award
            self.total_reward_paid += reward
            self.send(
                simulation,
                agent_name,
                Performative.AWARD if accepted else Performative.REJECT,
                content=award,
                conversation_id=self.conversation_id,
                round_number=self.current_round,
            )
        simulation.request_stop("negotiation finished")
