"""The grid-major acceptance kernels against the scalar customer code.

:meth:`VectorizedPopulation.highest_acceptable_cutdowns` and
:meth:`VectorizedPopulation.expected_gain_cutdowns` reduce a ``(G, N)``
matrix of acceptance thresholds along the grid axis, with feasibility folded
into the thresholds as ``+inf``.  These tests pin every result bit for bit
to ``CutdownRewardRequirements.highest_acceptable_cutdown`` and
``ExpectedGainBidding.choose_cutdown`` on the cells where the folding could
go wrong: offers that equal the requirement, covered but infeasible
cut-downs, cut-downs the requirement grid does not cover, the zero column,
surplus ties and infinite offers — on a plain population, a ``slice`` and a
``concatenate``d arena (serve coalescing), and on a grouped population.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agents.vectorized import VectorizedPopulation
from repro.negotiation.reward_table import CutdownRewardRequirements, RewardTable
from repro.negotiation.strategy import ExpectedGainBidding

INF = math.inf
GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
LINEAR = {0.0: 0.0, 0.2: 5.0, 0.4: 10.0, 0.6: 15.0, 0.8: 20.0, 1.0: 25.0}

#: Hand-made customers on one requirement grid, one per edge case.
REQUIREMENTS = [
    # Offers equal to these requirements are acceptable (ties accept).
    CutdownRewardRequirements(LINEAR),
    # Covered but infeasible beyond 0.5: never acceptable, whatever the offer.
    CutdownRewardRequirements(LINEAR, max_feasible_cutdown=0.5),
    # Only the zero cut-down is deliverable.
    CutdownRewardRequirements(LINEAR, max_feasible_cutdown=0.0),
    # Equal surplus at several cut-downs under a linear offer.
    CutdownRewardRequirements({0.0: 0.0, 0.2: 1.0, 0.4: 2.0, 0.6: 3.0, 0.8: 4.0, 1.0: 5.0}),
    # Nothing required: every deliverable cut-down is acceptable.
    CutdownRewardRequirements(dict.fromkeys(GRID, 0.0), max_feasible_cutdown=0.7),
    # An infinite requirement: only an infinite offer reaches it.
    CutdownRewardRequirements({0.0: 0.0, 0.2: 2.0, 0.4: INF, 0.6: INF, 0.8: INF, 1.0: INF}),
    # A limit just past a grid point (within the scalar 1e-12 slack).
    CutdownRewardRequirements(LINEAR, max_feasible_cutdown=0.6),
]

TABLES = {
    "offer_equals_required": RewardTable(dict(LINEAR)),
    "generous": RewardTable({c: 100.0 * c for c in GRID}),
    "stingy": RewardTable({c: 1.0 * c for c in GRID}),
    # Surplus 1.0 at 0.2-0.8 for the linear customer, 0.5 at 1.0.
    "surplus_ties": RewardTable(
        {0.0: 0.0, 0.2: 2.0, 0.4: 3.0, 0.6: 4.0, 0.8: 5.0, 1.0: 5.5}
    ),
    "uncovered_cutdowns": RewardTable(
        {0.0: 0.0, 0.1: 90.0, 0.2: 6.0, 0.3: 90.0, 0.5: 90.0, 1.0: 30.0}
    ),
    "no_zero_column": RewardTable({0.2: 5.0, 0.4: 9.0, 0.6: 16.0}),
    "zero_only": RewardTable({0.0: 0.0}),
    "infinite_offers": RewardTable(
        {0.0: 0.0, 0.2: 3.0, 0.3: INF, 0.4: INF, 0.6: INF, 1.0: INF}
    ),
}


def _scalar(table: RewardTable, requirements) -> tuple[np.ndarray, np.ndarray]:
    policy = ExpectedGainBidding()
    highest = np.array([r.highest_acceptable_cutdown(table) for r in requirements])
    gain = np.array([policy.choose_cutdown(table, r) for r in requirements])
    return highest, gain


def _assert_bit_equal(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.astype(float).tobytes(), (got, expected)


def _population(requirements) -> VectorizedPopulation:
    n = len(requirements)
    return VectorizedPopulation(
        customer_ids=[f"c{i}" for i in range(n)],
        predicted_uses=[1.0 + i for i in range(n)],
        allowed_uses=[1.0 + i for i in range(n)],
        requirements=requirements,
    )


def _layouts(requirements):
    """``(label, population, the scalar requirements its rows stand for)``."""
    plain = _population(requirements)
    yield "plain", plain, list(requirements)
    yield "slice", plain.slice(1, len(requirements) - 1), list(requirements[1:-1])
    reordered = list(reversed(requirements))
    arena = VectorizedPopulation.concatenate([plain, _population(reordered)])
    yield "concatenate", arena, list(requirements) + reordered
    part = arena.slice(len(requirements), 2 * len(requirements))
    yield "concatenate_slice", part, reordered


def _check(population, requirements, table) -> None:
    highest, gain = _scalar(table, requirements)
    _assert_bit_equal(population.highest_acceptable_cutdowns(table), highest)
    _assert_bit_equal(population.expected_gain_cutdowns(table), gain)


@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("layout", ["plain", "slice", "concatenate", "concatenate_slice"])
def test_kernels_match_the_scalar_code(table_name, layout):
    table = TABLES[table_name]
    for label, population, requirements in _layouts(REQUIREMENTS):
        if label == layout:
            _check(population, requirements, table)
            # A warm grid entry gives the same answer as a cold one.
            _check(population, requirements, table)


def test_the_edge_cases_are_exercised():
    """The hand-made tables really hit the cells they are named after."""
    highest, gain = _scalar(TABLES["offer_equals_required"], REQUIREMENTS)
    assert highest[0] == 1.0  # every offer equals the requirement
    assert highest[1] == 0.4  # covered up to 1.0, feasible up to 0.5
    assert highest[2] == 0.0 and gain[2] == 0.0  # zero column only
    assert gain[0] == 1.0  # all-zero surpluses tie; the larger cut-down wins
    __, ties = _scalar(TABLES["surplus_ties"], REQUIREMENTS)
    assert ties[3] == 0.8  # the largest of the tied best surpluses
    highest, __ = _scalar(TABLES["uncovered_cutdowns"], REQUIREMENTS)
    assert 0.5 not in highest and 0.3 not in highest  # never on the grid
    highest, gain = _scalar(TABLES["infinite_offers"], REQUIREMENTS)
    assert highest[1] == 0.4  # an infinite offer never buys an infeasible cell
    # inf >= inf accepts, but the surplus inf - inf is not a number and
    # never wins: the finite surplus at 0.2 does.
    assert highest[5] == 1.0 and gain[5] == 0.2


def test_a_grouped_population_matches_the_scalar_code():
    coarse = CutdownRewardRequirements({0.0: 0.0, 0.5: 7.0, 1.0: 20.0}, 0.8)
    mixed = REQUIREMENTS[:3] + [coarse] + REQUIREMENTS[3:] + [coarse]
    population = _population(mixed)
    assert population.num_grid_groups == 2
    for table in TABLES.values():
        _check(population, mixed, table)


class TestThresholdMatrix:
    def test_layout_and_folded_feasibility(self):
        population = _population(REQUIREMENTS)
        table = TABLES["uncovered_cutdowns"]
        grid, __, required = population._required_rewards_for(table)
        entry = population._grid_cache[grid.tobytes()]
        assert entry[0] is grid and entry[1] is required
        thresholds = entry[2]
        assert thresholds.shape == (grid.shape[0], len(REQUIREMENTS))
        assert thresholds.flags.c_contiguous and not thresholds.flags.writeable
        infeasible = grid[:, None] > population.max_feasible_cutdowns[None, :] + 1e-12
        assert np.isposinf(thresholds[infeasible]).all()
        assert np.array_equal(thresholds[~infeasible], required.T[~infeasible])

    def test_the_row_major_matrix_keeps_infeasible_requirements(self):
        # The triplet's (N, G) matrix still carries what the customer would
        # require, feasible or not; only the thresholds fold the limit in.
        population = _population(REQUIREMENTS)
        __, __, required = population._required_rewards_for(TABLES["generous"])
        assert required[1].tolist() == [LINEAR[c] for c in GRID]


REQUIREMENT_VALUES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, INF])
OFFER_VALUES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, INF])
TENTHS = [round(0.1 * i, 1) for i in range(11)]


@st.composite
def requirement_table(draw):
    values = {c: draw(REQUIREMENT_VALUES) for c in GRID}
    values[0.0] = draw(st.sampled_from([0.0, 1.0]))
    limit = draw(st.sampled_from([0.0, 0.3, 0.4, 0.5, 0.95, 1.0]))
    return CutdownRewardRequirements(values, max_feasible_cutdown=limit)


@st.composite
def reward_table(draw):
    cutdowns = draw(st.lists(st.sampled_from(TENTHS), min_size=1, max_size=8, unique=True))
    return RewardTable({c: draw(OFFER_VALUES) for c in cutdowns})


@given(
    requirements=st.lists(requirement_table(), min_size=3, max_size=12),
    table=reward_table(),
)
def test_random_small_values_match_the_scalar_code(requirements, table):
    """Few distinct values make equal offers, ties and infinities common."""
    for __, population, rows in _layouts(requirements):
        _check(population, rows, table)
