"""Sharded-runtime equivalence and mechanics.

The sharded runtime is only trustworthy if it is *indistinguishable* from
both existing paths at equal seeds: :class:`ShardedSession` must reproduce
:class:`FastSession` and :class:`NegotiationSession` bid for bid while
cutting the population into parallel slices.  These tests pin that contract
(all three backends, every negotiation method, both stock policies, the
scalar fallback), plus the sharding mechanics themselves: the partitioner,
the zero-copy slices, the per-round kernel cache and the between-round
reconciliation of shard-local aggregates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.agents.sharded import (
    ShardedPopulation,
    default_shard_count,
    partition_bounds,
)
from repro.agents.vectorized import VectorizedPopulation
from repro.core.fast_session import FastSession
from repro.core.scenario import Scenario, paper_prototype_scenario, synthetic_scenario
from repro.core.session import NegotiationSession
from repro.core.sharded_session import ShardedSession
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.reward_table import CutdownRewardRequirements, RewardTable
from repro.negotiation.strategy import ConstantBeta, ExpectedGainBidding

from test_fast_session_equivalence import assert_equivalent


def run_three_ways(make_scenario, shards: int = 3) -> tuple:
    """Object, fast and sharded results on independently built scenarios.

    The fast side pins object rounds (the fast path's oracle mode); the
    sharded side runs the default array rounds.
    """
    slow_result = NegotiationSession(make_scenario(), seed=0).run()
    fast_result = FastSession(make_scenario(), seed=0, rounds="object").run()
    sharded_result = ShardedSession(make_scenario(), seed=0, shards=shards).run()
    return slow_result, fast_result, sharded_result


class TestPartitioning:
    def test_bounds_cover_population_contiguously(self):
        bounds = partition_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 10

    def test_shard_sizes_differ_by_at_most_one(self):
        for customers in (1, 7, 100, 10_001):
            for shards in (1, 2, 3, 8):
                sizes = [stop - start for start, stop in partition_bounds(customers, shards)]
                assert sum(sizes) == customers
                assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_customers_clamps(self):
        assert partition_bounds(3, 16) == [(0, 1), (1, 2), (2, 3)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_bounds(0, 2)
        with pytest.raises(ValueError):
            partition_bounds(5, 0)

    def test_default_shard_count_is_positive(self):
        assert default_shard_count() >= 1


class TestPopulationSlices:
    @pytest.fixture
    def population(self) -> VectorizedPopulation:
        scenario = synthetic_scenario(num_households=20, seed=4)
        return VectorizedPopulation.from_population(scenario.population)

    def test_slices_are_zero_copy_views(self, population):
        shard = population.slice(5, 12)
        assert len(shard) == 7
        assert np.shares_memory(shard.predicted_uses, population.predicted_uses)
        assert np.shares_memory(shard.requirement_matrix, population.requirement_matrix)
        assert shard.customer_ids == population.customer_ids[5:12]

    def test_slice_kernels_match_global_rows(self, population):
        table = RewardTable.convex(35.0, exponent=1.6)
        full = population.highest_acceptable_cutdowns(table)
        shard = population.slice(3, 11)
        assert shard.highest_acceptable_cutdowns(table).tolist() == full[3:11].tolist()

    def test_invalid_ranges_rejected(self, population):
        for start, stop in ((-1, 5), (5, 5), (10, 3), (0, 999)):
            with pytest.raises(ValueError):
                population.slice(start, stop)

    def test_sharded_kernels_concatenate_to_global(self, population):
        sharded = ShardedPopulation(population, 4)
        table = RewardTable.convex(40.0, exponent=1.4)
        assert sharded.num_shards == 4
        for kernel in ("highest_acceptable_cutdowns", "expected_gain_cutdowns"):
            batched = getattr(population, kernel)(table)
            fanned = getattr(sharded, kernel)(table)
            assert fanned.tolist() == batched.tolist()
        queries = np.linspace(0.0, 0.9, len(population))
        assert sharded.interpolated_requirements(queries).tolist() == (
            population.interpolated_requirements(queries).tolist()
        )

    def test_heterogeneous_parent_keeps_shards_on_grouped_kernels(self):
        coarse = CutdownRewardRequirements(
            requirements={0.0: 0.0, 0.2: 4.0, 0.4: 21.0, 0.8: 95.0},
            max_feasible_cutdown=0.8,
        )
        fine = CutdownRewardRequirements.paper_figure_8_customer()
        population = VectorizedPopulation(
            customer_ids=["a", "b", "c", "d"],
            predicted_uses=[12.0, 9.0, 14.0, 11.0],
            allowed_uses=[12.0, 9.0, 14.0, 11.0],
            requirements=[coarse, fine, coarse, fine],
        )
        assert population.is_vectorizable
        assert population.requirement_grid is None
        assert population.num_grid_groups == 2
        sharded = ShardedPopulation(population, 2)
        # Shards of a grouped parent regroup their own rows (never a shared
        # matrix) so every shard runs the same grouped kernel flavour.
        for shard in sharded.shards:
            assert shard.is_vectorizable
            assert shard.requirement_grid is None
            assert shard.num_grid_groups >= 1
        table = RewardTable.convex(40.0, exponent=1.5)
        assert sharded.highest_acceptable_cutdowns(table).tolist() == (
            population.highest_acceptable_cutdowns(table).tolist()
        )


class TestKernelCache:
    @pytest.fixture
    def population(self) -> VectorizedPopulation:
        scenario = synthetic_scenario(num_households=15, seed=2)
        return VectorizedPopulation.from_population(scenario.population)

    def test_required_rewards_cached_per_table(self, population):
        table = RewardTable.convex(30.0, exponent=1.5)
        first = population._required_rewards_for(table)
        assert population.kernel_cache_stats() == {"hits": 0, "misses": 1}
        second = population._required_rewards_for(table)
        assert population.kernel_cache_stats()["hits"] == 1
        assert all(a is b for a, b in zip(first, second))
        # An equal-content table built independently also hits (content key).
        clone = RewardTable(dict(table.entries))
        population._required_rewards_for(clone)
        assert population.kernel_cache_stats()["hits"] == 2

    def test_both_bidding_kernels_share_one_computation(self, population):
        table = RewardTable.convex(45.0, exponent=1.3)
        population.highest_acceptable_cutdowns(table)
        misses = population.kernel_cache_stats()["misses"]
        population.expected_gain_cutdowns(table)
        assert population.kernel_cache_stats()["misses"] == misses
        assert population.kernel_cache_stats()["hits"] >= 1

    def test_interpolation_cached_per_query_vector(self, population):
        queries = np.linspace(0.0, 0.8, len(population))
        first = population.interpolated_requirements(queries)
        second = population.interpolated_requirements(queries.copy())
        assert first is second
        assert population.kernel_cache_stats()["hits"] == 1

    def test_cached_arrays_are_read_only(self, population):
        table = RewardTable.convex(30.0, exponent=1.5)
        __, __, required = population._required_rewards_for(table)
        with pytest.raises(ValueError):
            required[0, 0] = 1.0
        result = population.interpolated_requirements(
            np.linspace(0.0, 0.5, len(population))
        )
        with pytest.raises(ValueError):
            result[0] = 1.0

    def test_cache_is_bounded(self, population):
        from repro.agents.vectorized import KERNEL_CACHE_SIZE

        for index in range(KERNEL_CACHE_SIZE + 3):
            population._required_rewards_for(
                RewardTable.convex(20.0 + index, exponent=1.5)
            )
        assert len(population._required_rewards_cache) <= KERNEL_CACHE_SIZE

    def test_distinct_tables_miss(self, population):
        population._required_rewards_for(RewardTable.convex(30.0, exponent=1.5))
        population._required_rewards_for(RewardTable.convex(31.0, exponent=1.5))
        assert population.kernel_cache_stats() == {"hits": 0, "misses": 2}


class TestThreeWayEquivalence:
    """Acceptance criterion: sharded ≡ vectorized ≡ object at fixed seeds."""

    @pytest.mark.parametrize("num_households", [4, 12, 30])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_reward_tables(self, num_households, shards):
        def make():
            return synthetic_scenario(num_households=num_households, seed=7)

        slow, fast, sharded = run_three_ways(make, shards=shards)
        assert_equivalent(slow, sharded)
        assert_equivalent(fast, sharded)

    def test_expected_gain_policy(self):
        def make():
            method = RewardTablesMethod(
                max_reward=60.0,
                beta_controller=ConstantBeta(2.0),
                bidding_policy=ExpectedGainBidding(),
                reward_epsilon=0.3,
            )
            return synthetic_scenario(num_households=16, seed=2, method=method)

        slow, __, sharded = run_three_ways(make)
        assert_equivalent(slow, sharded)

    def test_offer_method(self):
        def make():
            return synthetic_scenario(
                num_households=20, seed=2, method=OfferMethod(x_max=0.8)
            )

        slow, __, sharded = run_three_ways(make)
        assert_equivalent(slow, sharded)

    def test_request_for_bids_method(self):
        def make():
            return synthetic_scenario(
                num_households=15, seed=1, method=RequestForBidsMethod()
            )

        slow, __, sharded = run_three_ways(make)
        assert_equivalent(slow, sharded)

    def test_paper_prototype(self):
        slow, __, sharded = run_three_ways(paper_prototype_scenario)
        assert_equivalent(slow, sharded)

    def test_heterogeneous_grids_fall_back_and_match(self):
        coarse = CutdownRewardRequirements(
            requirements={0.0: 0.0, 0.2: 4.0, 0.4: 21.0, 0.8: 95.0},
            max_feasible_cutdown=0.8,
        )
        fine = CutdownRewardRequirements.paper_figure_8_customer()

        def make():
            from repro.agents.population import CustomerPopulation

            population = CustomerPopulation.calibrated(
                predicted_uses=[12.0, 9.0, 14.0, 11.0],
                requirements=[coarse, fine, coarse, fine],
                normal_use=30.0,
                max_allowed_overuse=2.0,
            )
            method = RewardTablesMethod(
                max_reward=40.0, beta_controller=ConstantBeta(2.0)
            )
            return Scenario(name="hetero", population=population, method=method)

        slow, __, sharded = run_three_ways(make, shards=2)
        assert_equivalent(slow, sharded)

    @pytest.mark.tier2
    @pytest.mark.parametrize("num_households", [200, 1000])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_large_population_matrix(self, num_households, seed):
        def make():
            return synthetic_scenario(num_households=num_households, seed=seed)

        fast = FastSession(make(), seed=0, rounds="object").run()
        sharded = ShardedSession(make(), seed=0, shards=4).run()
        assert_equivalent(fast, sharded)


class TestShardedSessionMechanics:
    def test_build_is_idempotent_and_population_is_sharded(self):
        session = ShardedSession(paper_prototype_scenario(), seed=0, shards=2)
        first = session.build()
        assert session.build() is first
        assert isinstance(first, ShardedPopulation)
        assert session.num_shards == 2

    def test_shards_clamped_to_population(self):
        session = ShardedSession(paper_prototype_scenario(), seed=0, shards=64)
        assert session.num_shards == len(session.build())

    def test_refuses_second_run(self):
        session = ShardedSession(paper_prototype_scenario(), seed=0, shards=2)
        session.run()
        with pytest.raises(RuntimeError, match="already ran"):
            session.run()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="positive worker count"):
            ShardedSession(paper_prototype_scenario(), shards=0)

    def test_executor_is_released_after_run(self):
        session = ShardedSession(paper_prototype_scenario(), seed=0, shards=3)
        session.run()
        assert session._executor is None
        assert session.sharded._executor is None

    def test_reconciled_overuse_matches_authoritative_estimate(self):
        session = ShardedSession(
            synthetic_scenario(num_households=40, seed=5), seed=0, shards=4
        )
        result = session.run()
        reconciled = session.reconciled_overuses()
        authoritative = [r.predicted_overuse_after for r in result.record.rounds]
        assert len(reconciled) == len(authoritative)
        for ours, theirs in zip(reconciled, authoritative):
            assert ours == pytest.approx(theirs, abs=1e-9)

    def test_reconciliation_aligns_when_round_limit_cuts_the_run_short(self):
        # The final bid exchange of a max_simulation_rounds-bounded run is
        # never evaluated into a RoundRecord; the reconciliation must drop
        # its cut-down vector too, staying one-to-one with record.rounds.
        session = ShardedSession(
            synthetic_scenario(num_households=40, seed=5),
            seed=0, shards=4, max_simulation_rounds=3,
        )
        result = session.run()
        reconciled = session.reconciled_overuses()
        assert len(reconciled) == len(result.record.rounds) == 2
        for ours, theirs in zip(
            reconciled, [r.predicted_overuse_after for r in result.record.rounds]
        ):
            assert ours == pytest.approx(theirs, abs=1e-9)

    def test_shard_outcome_stats_reduce_to_global_totals(self):
        session = ShardedSession(
            synthetic_scenario(num_households=30, seed=3), seed=0, shards=3
        )
        result = session.run()
        stats = session.shard_outcome_stats()
        assert len(stats) == 3
        assert sum(s["customers"] for s in stats) == 30
        assert sum(s["accepted"] for s in stats) == sum(
            1 for o in result.customer_outcomes.values() if o.awarded
        )
        assert math.fsum(s["reward_sum"] for s in stats) == pytest.approx(
            result.total_reward_paid
        )
        assert math.fsum(s["surplus_sum"] for s in stats) == pytest.approx(
            math.fsum(o.surplus for o in result.customer_outcomes.values())
        )

    def test_stats_require_a_completed_run(self):
        session = ShardedSession(paper_prototype_scenario(), seed=0, shards=2)
        with pytest.raises(RuntimeError, match="run\\(\\)"):
            session.shard_outcome_stats()
        with pytest.raises(RuntimeError, match="run\\(\\)"):
            session.reconciled_overuses()
