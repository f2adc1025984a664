"""Negotiation sessions: running one negotiation as a multi-agent simulation.

A :class:`NegotiationSession` takes a :class:`~repro.core.scenario.Scenario`,
builds the Utility Agent, the Customer Agents (and optionally the Producer
Agent, External World and Resource Consumer Agents), wires them onto a
round-synchronous :class:`~repro.runtime.simulation.Simulation` and runs the
negotiation to completion.  The outcome is a
:class:`~repro.core.results.NegotiationResult`.
"""

from __future__ import annotations

from typing import Optional

from repro.agents.customer_agent import CustomerAgent
from repro.agents.external_world import ExternalWorld
from repro.agents.producer_agent import ProducerAgent
from repro.agents.utility_agent import UtilityAgent
from repro.core.results import CustomerOutcome, NegotiationResult
from repro.core.scenario import Scenario
from repro.grid.production import ProductionModel
from repro.negotiation.messages import Award
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.simulation import Simulation


class NegotiationSession:
    """Builds and runs the multi-agent negotiation for one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = 0,
        include_producer: bool = False,
        include_external_world: bool = False,
        with_resource_consumers: bool = False,
        max_simulation_rounds: int = 200,
        check_protocol: bool = True,
        retain_message_log: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.include_producer = include_producer
        self.include_external_world = include_external_world
        self.with_resource_consumers = with_resource_consumers
        self.max_simulation_rounds = max_simulation_rounds
        self.check_protocol = check_protocol
        self.retain_message_log = retain_message_log
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.simulation: Optional[Simulation] = None
        self.utility_agent: Optional[UtilityAgent] = None
        self.customer_agents: list[CustomerAgent] = []

    # -- construction ----------------------------------------------------------------

    def build(self) -> Simulation:
        """Instantiate agents and the simulation (idempotent)."""
        if self.simulation is not None:
            return self.simulation
        scenario = self.scenario
        simulation = Simulation(
            seed=self.seed,
            max_rounds=self.max_simulation_rounds,
            retain_message_log=self.retain_message_log,
            fault_injector=self.fault_injector,
        )

        self.customer_agents = scenario.population.build_customer_agents(
            scenario.method, with_resource_consumers=self.with_resource_consumers
        )
        producer_name = None
        world_name = None
        extra_participants = []
        if self.include_producer:
            production = ProductionModel.two_tier(
                normal_capacity_kw=scenario.population.normal_use,
                peak_capacity_kw=max(scenario.population.initial_overuse, 1.0) * 2,
            )
            producer = ProducerAgent(production)
            producer_name = producer.name
            extra_participants.append(producer)
        if self.include_external_world:
            world = ExternalWorld(weather=scenario.weather)
            world_name = world.name
            extra_participants.append(world)

        self.utility_agent = UtilityAgent(
            context=scenario.population.utility_context(),
            method=scenario.method,
            customer_agent_names=[agent.name for agent in self.customer_agents],
            conversation_id=f"negotiation_{scenario.name}",
            producer_agent=producer_name,
            external_world=world_name,
            check_protocol=self.check_protocol,
            bid_deadline_rounds=(
                self.fault_plan.bid_deadline_rounds
                if self.fault_plan is not None
                else None
            ),
        )
        if self.fault_injector is not None:
            # Only customer agents' announcements and bids fail; their
            # population positions index the injector's per-round masks.
            self.fault_injector.bind_customers(
                agent.name for agent in self.customer_agents
            )

        simulation.add_participant(self.utility_agent)
        for agent in self.customer_agents:
            simulation.add_participant(agent)
            for consumer in agent.resource_consumers:
                simulation.add_participant(consumer)
        for participant in extra_participants:
            simulation.add_participant(participant)
        self.simulation = simulation
        return simulation

    # -- execution ---------------------------------------------------------------------

    def run(self) -> NegotiationResult:
        """Run the negotiation to completion and return the result."""
        simulation = self.build()
        utility_agent = self.utility_agent
        if utility_agent is None:
            raise RuntimeError(
                "NegotiationSession.build() did not create a Utility Agent; "
                "the session cannot run"
            )
        report = simulation.run(stop_when=lambda: utility_agent.finished)
        return self._collect_result(report.rounds_executed)

    def _collect_result(self, simulation_rounds: int) -> NegotiationResult:
        if self.utility_agent is None or self.simulation is None:
            raise RuntimeError("the session must be built before collecting results")
        utility = self.utility_agent
        outcomes: dict[str, CustomerOutcome] = {}
        for agent in self.customer_agents:
            customer = agent.customer_id
            award = utility.awards.get(customer)
            final_bid = agent.bids_as_cutdowns()[-1] if agent.bid_history else 0.0
            outcomes[customer] = CustomerOutcome(
                customer=customer,
                final_bid_cutdown=final_bid,
                awarded=award.accepted if award is not None else False,
                committed_cutdown=award.committed_cutdown if award is not None and award.accepted else 0.0,
                reward=award.reward if award is not None and award.accepted else 0.0,
                surplus=self._realised_surplus(agent, award),
            )
        result = NegotiationResult(
            scenario_name=self.scenario.name,
            method_name=self.scenario.method.name,
            record=utility.record,
            customer_outcomes=outcomes,
            total_reward_paid=utility.total_reward_paid,
            messages_sent=self.simulation.bus.message_count(),
            simulation_rounds=simulation_rounds,
            degraded_households=len(utility.degraded_customers),
        )
        if self.fault_injector is not None:
            result.metadata["faults"] = self.fault_injector.report()
        return result

    def _realised_surplus(self, agent: CustomerAgent, award: Optional[Award]) -> float:
        """Reward minus monetised discomfort, from the authoritative award.

        Same formula as :meth:`CustomerAgent.realised_surplus`, but computed
        from the Utility Agent's award record rather than the agent's own
        copy: a customer whose award *message* was dropped or delayed (or who
        crash-stopped through the final round) still settles at the cut-down
        it is contractually committed to.  Fault-free, the agent's copy is
        the identical object, so the two computations agree bit for bit.
        """
        if award is None or not award.accepted:
            return 0.0
        discomfort = agent.context.requirements.interpolated_requirement(
            award.committed_cutdown
        )
        if discomfort == float("inf"):
            return award.reward
        return award.reward - discomfort
