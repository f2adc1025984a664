"""Customer preference models: building cut-down-reward requirement tables.

"Within the Customer Agent, knowledge of the customers preferences is
represented in the form of a cut-down-reward table" (Section 6.2).  The table
is private to the customer; this module constructs it either

* directly from explicit anchor points (for the paper's calibrated Figure 8/9
  customer and for unit tests), or
* from household characteristics: a convex discomfort function scaled by the
  household's comfort weight and the energy at stake, truncated at the
  physically feasible cut-down reported by the Resource Consumer Agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.grid.household import Household
from repro.grid.weather import WeatherSample
from repro.negotiation.reward_table import (
    DEFAULT_CUTDOWN_GRID,
    CutdownRewardRequirements,
)
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.fleet import HouseholdFleet


@dataclass(frozen=True)
class FleetRequirements:
    """Requirement tables for a whole fleet, in columnar form.

    ``matrix`` is the full ``(num_households, grid)`` required-reward table —
    row ``i`` carries the same values as the scalar
    :meth:`CustomerPreferenceModel.requirements_for_household` table of
    household ``i`` (bit-identical); ``max_feasible`` and ``energies`` are the
    per-household physical cut-down limits and peak-interval energies the
    tables were derived from.
    """

    grid: tuple[float, ...]
    matrix: np.ndarray
    max_feasible: np.ndarray
    energies: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def tables(self) -> list[CutdownRewardRequirements]:
        """Materialise one :class:`CutdownRewardRequirements` per household."""
        grid = self.grid
        return [
            CutdownRewardRequirements(
                requirements=dict(zip(grid, row)),
                max_feasible_cutdown=feasible,
            )
            for row, feasible in zip(self.matrix.tolist(), self.max_feasible.tolist())
        ]

    def slice(self, start: int, stop: int) -> "FleetRequirements":
        """Requirements for households ``[start, stop)`` (row views, no copies).

        Used by the sharded runtime to keep each shard of a lazily
        materialised population columnar.
        """
        return FleetRequirements(
            grid=self.grid,
            matrix=self.matrix[start:stop],
            max_feasible=self.max_feasible[start:stop],
            energies=self.energies[start:stop],
        )


@dataclass
class CustomerPreferenceModel:
    """Parametric model of a customer's discomfort-versus-reward trade-off.

    The required reward for a cut-down fraction ``x`` is::

        required(x) = comfort_weight * discomfort_scale * energy_at_stake * x ** exponent

    * ``comfort_weight`` — household-specific attitude (from
      :class:`~repro.grid.household.HouseholdProfile`).
    * ``discomfort_scale`` — currency per kWh of forgone consumption at full
      cut-down (calibrated so typical rewards land in the same range as the
      paper's prototype figures).
    * ``energy_at_stake`` — the household's predicted energy in the peak
      interval (kWh); bigger consumers need bigger absolute rewards.
    * ``exponent`` — convexity: the first 10% cut hurts far less than the
      last 10%.
    """

    comfort_weight: float = 1.0
    discomfort_scale: float = 2.0
    exponent: float = 1.8
    grid: Sequence[float] = DEFAULT_CUTDOWN_GRID

    def __post_init__(self) -> None:
        if self.comfort_weight <= 0:
            raise ValueError("comfort weight must be positive")
        if self.discomfort_scale <= 0:
            raise ValueError("discomfort scale must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")

    def requirements_for_energy(
        self, energy_at_stake_kwh: float, max_feasible_cutdown: float = 1.0
    ) -> CutdownRewardRequirements:
        """Requirement table for a given amount of peak-interval energy."""
        if energy_at_stake_kwh < 0:
            raise ValueError("energy at stake must be non-negative")
        requirements = {}
        for cutdown in self.grid:
            if cutdown == 0.0:
                requirements[0.0] = 0.0
                continue
            requirements[cutdown] = (
                self.comfort_weight
                * self.discomfort_scale
                * energy_at_stake_kwh
                * (cutdown ** self.exponent)
            )
        return CutdownRewardRequirements(
            requirements=requirements, max_feasible_cutdown=max_feasible_cutdown
        )

    def requirements_for_household(
        self,
        household: Household,
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
    ) -> CutdownRewardRequirements:
        """Requirement table for a concrete household and peak interval.

        The energy at stake is the household's predicted energy in the
        interval; the feasible cut-down is what its appliances can deliver
        (as its Resource Consumer Agents would report).
        """
        energy = household.demand_profile(weather).energy_in(interval)
        max_feasible = household.max_cutdown_fraction(interval, weather)
        model = CustomerPreferenceModel(
            comfort_weight=self.comfort_weight * household.profile.comfort_weight,
            discomfort_scale=self.discomfort_scale,
            exponent=self.exponent,
            grid=self.grid,
        )
        return model.requirements_for_energy(energy, max_feasible)

    def requirements_for_fleet(
        self,
        fleet: "HouseholdFleet",
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
        comfort_weights: Optional[Union[Sequence[float], np.ndarray]] = None,
    ) -> FleetRequirements:
        """The full ``(num_households, grid)`` requirement matrix, batched.

        One broadcasted expression replaces the per-household
        :meth:`requirements_for_household` loop: the fleet kernels deliver the
        per-household peak-interval energies and feasible cut-downs, and the
        matrix is ``(comfort x scale x energy) x grid**exponent`` — the same
        float operations in the same order as the scalar path, so row ``i`` is
        bit-identical to household ``i``'s scalar table.

        ``comfort_weights`` optionally replaces the model's scalar
        ``comfort_weight`` with a per-household vector (used by the synthetic
        population generator, whose customers each sample their own base
        attitude); either way the household's own comfort weight multiplies in
        exactly as in the scalar path.
        """
        # The feasible cut-downs first: their saveable-energy pass also builds
        # the weather's demand matrix, which energy_in then reads from cache.
        max_feasible = fleet.max_cutdown_fractions(interval, weather)
        energies = fleet.energy_in(interval, weather)
        if comfort_weights is None:
            base = np.full(len(fleet), self.comfort_weight)
        else:
            base = np.asarray(comfort_weights, dtype=float)
            if base.shape != (len(fleet),):
                raise ValueError("comfort_weights must have one entry per household")
        effective = base * fleet.comfort_weights
        grid = tuple(float(c) for c in self.grid)
        # Python ** matches the scalar path bit-for-bit; np.power can differ
        # in the last ulp for some bases.
        powers = np.array([c ** self.exponent for c in grid])
        scale = (effective * self.discomfort_scale) * energies
        matrix = scale[:, None] * powers[None, :]
        zero_columns = [index for index, c in enumerate(grid) if c == 0.0]
        if zero_columns:
            matrix[:, zero_columns] = 0.0
        matrix.setflags(write=False)
        max_feasible.setflags(write=False)
        energies.setflags(write=False)
        return FleetRequirements(
            grid=grid, matrix=matrix, max_feasible=max_feasible, energies=energies
        )

    @classmethod
    def sample(cls, random: RandomSource, grid: Sequence[float] = DEFAULT_CUTDOWN_GRID) -> "CustomerPreferenceModel":
        """Draw a heterogeneous preference model for one customer."""
        return cls(
            comfort_weight=max(0.3, random.lognormal(0.0, 0.4)),
            discomfort_scale=max(0.5, random.normal(2.0, 0.5)),
            exponent=max(1.1, random.normal(1.8, 0.25)),
            grid=grid,
        )
