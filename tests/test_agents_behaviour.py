"""Behavioural tests for the runtime agents (UA, CA, Producer, World, RCA)."""

from __future__ import annotations

import pytest

from repro.agents.customer_agent import CustomerAgent
from repro.agents.external_world import ExternalWorld
from repro.agents.population import CustomerPopulation, PopulationConfig
from repro.agents.producer_agent import ProducerAgent
from repro.agents.resource_consumer_agent import ResourceConsumerAgent
from repro.agents.utility_agent import NegotiationPhase, UtilityAgent
from repro.grid.appliances import ApplianceLibrary, standard_appliance_library
from repro.grid.household import Household
from repro.grid.production import ProductionModel
from repro.grid.weather import WeatherCondition, WeatherSample
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.reward_table import CutdownRewardRequirements
from repro.negotiation.strategy import ConstantBeta
from repro.negotiation.termination import TerminationReason
from repro.runtime.clock import TimeInterval
from repro.runtime.messaging import Message, Performative
from repro.runtime.rng import RandomSource
from repro.runtime.simulation import Simulation


def build_negotiation(tiny_population, method=None, max_rounds=50):
    """Wire a UA and CAs for the tiny population onto a fresh simulation."""
    method = method or RewardTablesMethod(max_reward=60.0, beta_controller=ConstantBeta(2.0))
    simulation = Simulation(seed=0, max_rounds=max_rounds)
    customer_agents = tiny_population.build_customer_agents(method)
    utility = UtilityAgent(
        context=tiny_population.utility_context(),
        method=method,
        customer_agent_names=[agent.name for agent in customer_agents],
    )
    simulation.add_participant(utility)
    for agent in customer_agents:
        simulation.add_participant(agent)
    return simulation, utility, customer_agents


class TestUtilityAndCustomerAgents:
    def test_negotiation_runs_to_completion(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        assert utility.finished
        assert utility.record.final_overuse is not None
        assert utility.record.final_overuse <= tiny_population.initial_overuse

    def test_announcements_and_bids_flow_through_bus(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        histogram = simulation.bus.messages_by_performative()
        assert histogram[Performative.ANNOUNCE] == utility.record.num_rounds * len(customers)
        assert histogram[Performative.BID] >= len(customers)
        assert (
            histogram.get(Performative.AWARD, 0) + histogram.get(Performative.REJECT, 0)
            == len(customers)
        )

    def test_no_negotiation_when_no_peak(self):
        population = CustomerPopulation.calibrated(
            predicted_uses=[5.0, 5.0],
            requirements=[CutdownRewardRequirements.paper_figure_8_customer()] * 2,
            normal_use=20.0,
        )
        method = RewardTablesMethod(max_reward=30.0)
        simulation = Simulation(seed=0)
        agents = population.build_customer_agents(method)
        utility = UtilityAgent(
            context=population.utility_context(),
            method=method,
            customer_agent_names=[a.name for a in agents],
        )
        simulation.add_participant(utility)
        for agent in agents:
            simulation.add_participant(agent)
        simulation.run(rounds=2)
        assert utility.phase is NegotiationPhase.FINISHED
        assert utility.record.termination_reason is TerminationReason.OVERUSE_ACCEPTABLE
        assert utility.record.num_rounds == 0

    def test_customer_bid_history_is_monotone(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        for agent in customers:
            cutdowns = agent.bids_as_cutdowns()
            assert all(b >= a for a, b in zip(cutdowns, cutdowns[1:]))

    def test_awards_are_recorded_on_both_sides(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        for agent in customers:
            award = utility.awards[agent.customer_id]
            if award.accepted:
                assert agent.award is not None
                assert agent.award.reward == award.reward
                assert agent.total_reward_received == award.reward
        assert utility.total_reward_paid == pytest.approx(
            sum(award.reward for award in utility.awards.values())
        )

    def test_monotonic_concession_protocol_not_violated(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        assert utility.protocol.violations == []

    def test_utility_requires_customers(self, tiny_population):
        with pytest.raises(ValueError):
            UtilityAgent(
                context=tiny_population.utility_context(),
                method=RewardTablesMethod(),
                customer_agent_names=[],
            )

    def test_customer_realised_surplus_nonnegative_for_awarded(self, tiny_population):
        simulation, utility, customers = build_negotiation(tiny_population)
        simulation.run(stop_when=lambda: utility.finished)
        for agent in customers:
            if agent.award is not None and agent.award.accepted and agent.award.committed_cutdown > 0:
                # The customer only ever bids acceptable cut-downs, so its
                # reward covers its requirement.
                assert agent.realised_surplus() >= -1e-9


class TestInformationAgents:
    def test_producer_agent_replies_to_requests(self):
        production = ProductionModel.two_tier(100.0, 40.0)
        producer = ProducerAgent(production)
        simulation = Simulation(seed=0)
        simulation.add_participant(producer)
        simulation.bus.register("asker")
        simulation.bus.send(
            Message(
                sender="asker", receiver=producer.name,
                performative=Performative.REQUEST, content={"requested": "status"},
            )
        )
        simulation.step_round()
        replies = simulation.bus.mailbox("asker").collect_matching(Performative.REPLY)
        assert len(replies) == 1
        assert replies[0].content["normal_capacity_kw"] == 100.0

    def test_external_world_observation_and_subscription(self, cold_day):
        world = ExternalWorld(weather=cold_day)
        simulation = Simulation(seed=0)
        simulation.add_participant(world)
        simulation.bus.register("utility_agent")
        world.subscribe("utility_agent")
        simulation.step_round()
        informs = simulation.bus.mailbox("utility_agent").collect_matching(Performative.INFORM)
        assert len(informs) == 1
        observation = informs[0].content
        assert observation["weather_condition"] == WeatherCondition.SEVERE_COLD.value
        assert observation["heating_factor"] > 1.0

    def test_external_world_lazy_weather(self):
        world = ExternalWorld()
        assert world.weather is not None
        fixed = WeatherSample(0.0, WeatherCondition.COLD)
        world.set_weather(fixed)
        assert world.weather == fixed

    def test_resource_consumer_agent_reports_and_accepts_instructions(self, cold_day):
        library = standard_appliance_library()
        household = Household.generate("h9", RandomSource(2, "rca"), library)
        appliance = library.get("hot_water_boiler")
        rca = ResourceConsumerAgent(
            household=household, appliance=appliance, usage_scale=1.0,
            owner_agent="customer_agent_h9", weather=cold_day,
        )
        interval = TimeInterval.from_hours(17, 20)
        assert rca.saveable_energy(interval) > 0
        assert rca.energy_in(interval) >= rca.saveable_energy(interval)

        simulation = Simulation(seed=0)
        simulation.add_participant(rca)
        simulation.bus.register("customer_agent_h9")
        simulation.bus.send(Message(
            sender="customer_agent_h9", receiver=rca.name,
            performative=Performative.REQUEST, content=interval,
        ))
        simulation.bus.send(Message(
            sender="customer_agent_h9", receiver=rca.name,
            performative=Performative.INFORM, content={"cutdown": 0.3},
        ))
        simulation.step_round()
        mailbox = simulation.bus.mailbox("customer_agent_h9")
        replies = mailbox.collect_matching(Performative.REPLY)
        confirms = mailbox.collect_matching(Performative.CONFIRM)
        assert len(replies) == 1 and replies[0].content["saveable_kwh"] > 0
        assert len(confirms) == 1
        assert rca.instructed_cutdown == pytest.approx(0.3)

    def test_rca_ignores_invalid_instructions(self, cold_day):
        library = standard_appliance_library()
        household = Household.generate("h9", RandomSource(2, "rca"), library)
        rca = ResourceConsumerAgent(
            household=household, appliance=library.get("lighting"), usage_scale=1.0,
            owner_agent="owner", weather=cold_day,
        )
        simulation = Simulation(seed=0)
        simulation.add_participant(rca)
        simulation.bus.register("owner")
        simulation.bus.send(Message(
            sender="owner", receiver=rca.name,
            performative=Performative.INFORM, content={"cutdown": 5.0},
        ))
        simulation.step_round()
        assert rca.instructed_cutdown == 0.0

    def test_utility_agent_gathers_producer_and_world_information(self, tiny_population, cold_day):
        method = RewardTablesMethod(max_reward=60.0)
        simulation = Simulation(seed=0)
        customer_agents = tiny_population.build_customer_agents(method)
        production = ProductionModel.two_tier(
            tiny_population.normal_use, tiny_population.initial_overuse * 2
        )
        producer = ProducerAgent(production)
        world = ExternalWorld(weather=cold_day)
        utility = UtilityAgent(
            context=tiny_population.utility_context(),
            method=method,
            customer_agent_names=[a.name for a in customer_agents],
            producer_agent=producer.name,
            external_world=world.name,
        )
        simulation.add_participant(utility)
        for agent in customer_agents:
            simulation.add_participant(agent)
        simulation.add_participant(producer)
        simulation.add_participant(world)
        simulation.run(stop_when=lambda: utility.finished)
        assert utility.finished
        assert len(utility.producer_reports) >= 1
        assert len(utility.world_observations) >= 1


class TestPopulation:
    def test_synthetic_population_has_peak(self, cold_day):
        population = CustomerPopulation.synthetic(
            PopulationConfig(num_households=15, seed=1), weather=cold_day
        )
        assert len(population) == 15
        assert population.initial_overuse > 0
        assert population.interval is not None
        context = population.utility_context()
        assert context.total_predicted_use == pytest.approx(population.total_predicted_use)

    def test_synthetic_population_reproducible(self, cold_day):
        a = CustomerPopulation.synthetic(PopulationConfig(num_households=8, seed=5), weather=cold_day)
        b = CustomerPopulation.synthetic(PopulationConfig(num_households=8, seed=5), weather=cold_day)
        assert a.normal_use == b.normal_use
        assert [s.predicted_use for s in a.specs] == [s.predicted_use for s in b.specs]

    @pytest.mark.parametrize("planning", ["columnar", "scalar"])
    def test_synthetic_population_honours_an_explicit_library(self, cold_day, planning):
        standard = standard_appliance_library()
        heating_only = ApplianceLibrary(
            [standard.get("electric_space_heating"), standard.get("hot_water_boiler")]
        )
        population = CustomerPopulation.synthetic(
            PopulationConfig(num_households=6, seed=3),
            weather=cold_day,
            library=heating_only,
            planning=planning,
        )
        assert len(population.households) == 6
        for household in population.households:
            assert household.library is heating_only
            assert list(household.profile.ownership) == heating_only.names

    def test_synthetic_population_rejects_an_empty_library(self, cold_day):
        # An empty library is falsy; it must be refused, never swapped for
        # the standard catalogue.
        with pytest.raises(ValueError, match="non-empty appliance library"):
            CustomerPopulation.synthetic(
                PopulationConfig(num_households=4, seed=3),
                weather=cold_day,
                library=ApplianceLibrary(),
            )

    def test_calibrated_population_validation(self):
        from repro.negotiation.reward_table import CutdownRewardRequirements

        base = CutdownRewardRequirements.paper_figure_8_customer()
        with pytest.raises(ValueError):
            CustomerPopulation.calibrated([1.0, 2.0], [base], normal_use=1.0)
        with pytest.raises(ValueError):
            CustomerPopulation.calibrated([1.0], [base], normal_use=0.0)
        with pytest.raises(ValueError):
            CustomerPopulation.calibrated([1.0], [base], normal_use=1.0, allowed_uses=[1.0, 2.0])

    def test_spec_lookup(self, tiny_population):
        assert tiny_population.spec("c000").predicted_use == 10.0
        with pytest.raises(KeyError):
            tiny_population.spec("ghost")

    def test_build_customer_agents_with_resource_consumers(self, cold_day):
        population = CustomerPopulation.synthetic(
            PopulationConfig(num_households=3, seed=2), weather=cold_day
        )
        method = RewardTablesMethod(max_reward=60.0)
        agents = population.build_customer_agents(method, with_resource_consumers=True)
        assert len(agents) == 3
        assert all(len(agent.resource_consumers) > 0 for agent in agents)

    def test_population_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_households=0)
        with pytest.raises(ValueError):
            PopulationConfig(behavioural_noise=-0.1)
