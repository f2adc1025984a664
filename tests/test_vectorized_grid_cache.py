"""The grid-keyed round cache of :class:`VectorizedPopulation`.

A negotiation re-announces one cut-down grid with new rewards every round.
The required-reward gather and the feasibility mask depend only on that
grid, so they are built once per grid and shared by every table announced
on it; each round then only compares its offers.  These tests pin that
sharing never changes a kernel result, and that the per-table cache and its
hit/miss counters keep their meaning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.vectorized import VectorizedPopulation
from repro.core.scenario import synthetic_scenario
from repro.negotiation.reward_table import RewardTable
from repro.negotiation.strategy import ExpectedGainBidding

GRID = tuple(round(0.1 * i, 1) for i in range(11))


@pytest.fixture(scope="module")
def scenario():
    return synthetic_scenario(num_households=40, seed=4)


def _fresh(scenario) -> VectorizedPopulation:
    return VectorizedPopulation.from_population(scenario.population)


def _kernels(population: VectorizedPopulation, table: RewardTable) -> list[np.ndarray]:
    highest = population.highest_acceptable_cutdowns(table)
    gain = population.expected_gain_cutdowns(table)
    return [highest, gain, population.table_rewards(table, gain)]


def _scalar(population: VectorizedPopulation, table: RewardTable) -> list[np.ndarray]:
    policy = ExpectedGainBidding()
    highest = [r.highest_acceptable_cutdown(table) for r in population.requirements]
    gain = [policy.choose_cutdown(table, r) for r in population.requirements]
    rewards = [table.reward_for(c) if c > 0 else 0.0 for c in gain]
    return [np.array(highest), np.array(gain), np.array(rewards)]


def _assert_same(got: list[np.ndarray], expected: list[np.ndarray]) -> None:
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


class TestSharedGrid:
    def test_tables_on_one_grid_match_a_fresh_population(self, scenario):
        population = _fresh(scenario)
        first = RewardTable.convex(25.0, exponent=1.5, grid=GRID)
        second = RewardTable.convex(60.0, exponent=1.2, grid=GRID)
        _kernels(population, first)
        warm = _kernels(population, second)
        # Both tables ride one grid entry...
        assert len(population._grid_cache) == 1
        # ...and the second table's results are those of a cold population.
        _assert_same(warm, _kernels(_fresh(scenario), second))
        _assert_same(warm, _scalar(population, second))
        # The first table, re-evaluated after the second, is unchanged too.
        _assert_same(_kernels(population, first), _kernels(_fresh(scenario), first))

    def test_tables_share_the_grid_arrays(self, scenario):
        population = _fresh(scenario)
        grid_a, offered_a, required_a = population._required_rewards_for(
            RewardTable.convex(25.0, exponent=1.5, grid=GRID)
        )
        grid_b, offered_b, required_b = population._required_rewards_for(
            RewardTable.convex(60.0, exponent=1.2, grid=GRID)
        )
        assert grid_a is grid_b and required_a is required_b
        assert not np.array_equal(offered_a, offered_b)

    def test_uncovered_cut_downs_require_inf(self, scenario):
        # The table offers half-step cut-downs the requirement grid lacks.
        population = _fresh(scenario)
        fine = tuple(round(0.05 * i, 2) for i in range(21))
        table = RewardTable.convex(40.0, exponent=1.4, grid=fine)
        grid, __, required = population._required_rewards_for(table)
        covered = np.isin(grid, population.requirement_grid)
        assert not covered.all()
        assert np.isinf(required[:, ~covered]).all()
        assert np.isfinite(required[:, covered]).all()
        _assert_same(_kernels(population, table), _scalar(population, table))

    def test_strict_subset_grid_gets_its_own_entry(self, scenario):
        population = _fresh(scenario)
        _kernels(population, RewardTable.convex(40.0, exponent=1.4, grid=GRID))
        subset = (0.0, 0.2, 0.4, 0.6, 0.25)
        table = RewardTable.convex(40.0, exponent=1.4, grid=subset)
        warm = _kernels(population, table)
        assert len(population._grid_cache) == 2
        grid, __, required = population._required_rewards_for(table)
        assert grid.tolist() == sorted(subset)
        # 0.25 is off the requirement grid: never acceptable.
        assert np.isinf(required[:, grid.tolist().index(0.25)]).all()
        _assert_same(warm, _kernels(_fresh(scenario), table))
        _assert_same(warm, _scalar(population, table))

    def test_grid_arrays_are_read_only(self, scenario):
        population = _fresh(scenario)
        population._required_rewards_for(RewardTable.convex(30.0, grid=GRID))
        (entry,) = population._grid_cache.values()
        for array in entry:
            with pytest.raises(ValueError):
                array.flat[0] = 1.0
        __, offered, __ = population._required_rewards_for(
            RewardTable.convex(30.0, grid=GRID)
        )
        with pytest.raises(ValueError):
            offered[0] = 1.0

    def test_reset_clears_the_grid_cache(self, scenario):
        population = _fresh(scenario)
        _kernels(population, RewardTable.convex(30.0, grid=GRID))
        population._reset_kernel_cache()
        assert population._grid_cache == {}


class TestCounters:
    """The grid cache is invisible to ``kernel_cache_stats``."""

    def test_each_new_table_misses_even_on_a_known_grid(self, scenario):
        population = _fresh(scenario)
        population._required_rewards_for(RewardTable.convex(30.0, grid=GRID))
        population._required_rewards_for(RewardTable.convex(31.0, grid=GRID))
        assert population.kernel_cache_stats() == {"hits": 0, "misses": 2}
        population._required_rewards_for(RewardTable.convex(30.0, grid=GRID))
        assert population.kernel_cache_stats() == {"hits": 1, "misses": 2}

    def test_one_round_is_one_miss(self, scenario):
        population = _fresh(scenario)
        _kernels(population, RewardTable.convex(30.0, grid=GRID))
        assert population.kernel_cache_stats() == {"hits": 2, "misses": 1}
