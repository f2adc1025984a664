"""Appliance-level load models.

The paper notes that domestic consumers "all have devices that consume
electricity to various degrees" and that a customer's flexibility is
"partially defined by the type of equipment they use within their homes".
Resource Consumer Agents (Section 5.2) report how much electricity can be
saved in a given interval; that figure ultimately comes from which appliances
can be deferred, throttled or switched off.

Each :class:`Appliance` contributes a daily usage pattern (relative intensity
per hour, scaled to its rated power and typical daily energy) and declares a
*flexibility*: the fraction of its consumption that can be cut during a peak
interval without unacceptable loss of comfort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.grid.load_profile import LoadProfile
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource


class ApplianceCategory(Enum):
    """Broad appliance classes with different flexibility characteristics."""

    SPACE_HEATING = "space_heating"
    WATER_HEATING = "water_heating"
    WHITE_GOODS = "white_goods"          # washing machine, dryer, dishwasher
    COLD_APPLIANCES = "cold_appliances"  # fridge, freezer
    COOKING = "cooking"
    LIGHTING = "lighting"
    ENTERTAINMENT = "entertainment"
    OTHER = "other"


@dataclass(frozen=True)
class Appliance:
    """A single appliance type.

    Attributes
    ----------
    name:
        Unique appliance name within a library.
    category:
        Broad class, determining default flexibility.
    rated_power_kw:
        Power draw when running (kW).
    daily_energy_kwh:
        Typical energy use per day (kWh) for an average household.
    usage_pattern:
        Relative usage intensity per hour of day (24 values, arbitrary
        positive scale).  Scaled so the resulting profile integrates to
        ``daily_energy_kwh``.
    flexibility:
        Fraction of consumption in a peak interval that can be cut or
        deferred (0 = must-run, 1 = fully deferrable).
    per_person:
        Whether the appliance's energy scales with household size.
    """

    name: str
    category: ApplianceCategory
    rated_power_kw: float
    daily_energy_kwh: float
    usage_pattern: tuple[float, ...]
    flexibility: float
    per_person: bool = False

    def __post_init__(self) -> None:
        if self.rated_power_kw <= 0:
            raise ValueError(f"{self.name}: rated power must be positive")
        if self.daily_energy_kwh < 0:
            raise ValueError(f"{self.name}: daily energy must be non-negative")
        if len(self.usage_pattern) != 24:
            raise ValueError(f"{self.name}: usage pattern must have 24 hourly values")
        if any(v < 0 for v in self.usage_pattern):
            raise ValueError(f"{self.name}: usage pattern values must be non-negative")
        if sum(self.usage_pattern) <= 0:
            raise ValueError(f"{self.name}: usage pattern must not be all zero")
        if not 0.0 <= self.flexibility <= 1.0:
            raise ValueError(f"{self.name}: flexibility must be in [0, 1]")

    def slot_weights(self, slots_per_day: int = 24) -> np.ndarray:
        """Normalised per-slot energy weights at the requested resolution.

        The 24-hour usage pattern resampled to ``slots_per_day`` slots and
        normalised to sum to one; shared by :meth:`daily_profile` and the
        columnar :class:`~repro.grid.fleet.HouseholdFleet` kernels so the two
        paths can never drift.
        """
        pattern = np.asarray(self.usage_pattern, dtype=float)
        if slots_per_day % 24 == 0:
            repeat = slots_per_day // 24
            resampled = np.repeat(pattern, repeat)
        elif 24 % slots_per_day == 0:
            group = 24 // slots_per_day
            resampled = pattern.reshape(slots_per_day, group).mean(axis=1)
        else:
            raise ValueError(
                f"slots_per_day ({slots_per_day}) must be a multiple or divisor of 24"
            )
        return resampled / resampled.sum() if resampled.sum() > 0 else resampled

    def daily_profile(
        self,
        slots_per_day: int = 24,
        household_size: int = 2,
        scale: float = 1.0,
        heating_factor: float = 1.0,
    ) -> LoadProfile:
        """Daily load profile of this appliance for one household.

        Parameters
        ----------
        slots_per_day:
            Resolution of the returned profile.
        household_size:
            Number of persons; scales per-person appliances.
        scale:
            Household-specific multiplier (ownership intensity, behaviour).
        heating_factor:
            Weather-driven multiplier applied to heating categories only.
        """
        if household_size <= 0:
            raise ValueError("household size must be positive")
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if heating_factor < 0:
            raise ValueError("heating factor must be non-negative")
        energy = self.daily_energy_kwh * scale
        if self.per_person:
            energy *= household_size
        if self.category in (ApplianceCategory.SPACE_HEATING, ApplianceCategory.WATER_HEATING):
            energy *= heating_factor
        slot_hours = 24.0 / slots_per_day
        weights = self.slot_weights(slots_per_day)
        energy_per_slot = weights * energy
        power = energy_per_slot / slot_hours
        # No single slot can exceed the rated power times persons using it.
        cap = self.rated_power_kw * (household_size if self.per_person else 1.0) * max(scale, 1.0)
        power = np.minimum(power, cap)
        return LoadProfile(tuple(float(p) for p in power))

    def saveable_energy(self, profile: LoadProfile, interval: TimeInterval) -> float:
        """Energy (kWh) this appliance could save in an interval, given its profile."""
        return profile.energy_in(interval) * self.flexibility


#: Ownership probability of a one-person household, per appliance category;
#: :meth:`ApplianceLibrary.sample_ownership` adds a household-size bonus.
_BASE_OWNERSHIP_PROBABILITY = {
    ApplianceCategory.SPACE_HEATING: 0.85,
    ApplianceCategory.WATER_HEATING: 0.9,
    ApplianceCategory.WHITE_GOODS: 0.7,
    ApplianceCategory.COLD_APPLIANCES: 1.0,
    ApplianceCategory.COOKING: 0.95,
    ApplianceCategory.LIGHTING: 1.0,
    ApplianceCategory.ENTERTAINMENT: 0.9,
    ApplianceCategory.OTHER: 0.6,
}


class ApplianceLibrary:
    """A catalogue of appliance types households can own."""

    def __init__(self, appliances: Optional[Sequence[Appliance]] = None) -> None:
        self._appliances: dict[str, Appliance] = {}
        for appliance in appliances or ():
            self.add(appliance)

    def add(self, appliance: Appliance) -> None:
        if appliance.name in self._appliances:
            raise ValueError(f"appliance {appliance.name!r} already in library")
        self._appliances[appliance.name] = appliance

    def get(self, name: str) -> Appliance:
        try:
            return self._appliances[name]
        except KeyError:
            raise KeyError(f"no appliance named {name!r} in library") from None

    def __contains__(self, name: str) -> bool:
        return name in self._appliances

    def __len__(self) -> int:
        return len(self._appliances)

    @property
    def names(self) -> list[str]:
        return list(self._appliances)

    def all(self) -> list[Appliance]:
        return list(self._appliances.values())

    def by_category(self, category: ApplianceCategory) -> list[Appliance]:
        return [a for a in self._appliances.values() if a.category == category]

    def sample_ownership(
        self, random: RandomSource, household_size: int
    ) -> dict[str, float]:
        """Sample which appliances a household owns and with what intensity.

        Returns a mapping appliance name -> usage scale (0 means not owned).
        Ownership probabilities rise mildly with household size.
        """
        if household_size <= 0:
            raise ValueError("household size must be positive")
        ownership: dict[str, float] = {}
        size_bonus = min(0.15 * (household_size - 1), 0.45)
        for appliance in self._appliances.values():
            probability = min(1.0, _BASE_OWNERSHIP_PROBABILITY[appliance.category] + size_bonus)
            if random.boolean(probability):
                ownership[appliance.name] = max(0.2, random.normal(1.0, 0.25))
            else:
                ownership[appliance.name] = 0.0
        return ownership


def _evening_morning_pattern(morning: float, midday: float, evening: float, night: float) -> tuple[float, ...]:
    """A 24-hour pattern with the classic domestic morning/evening structure."""
    pattern = []
    for hour in range(24):
        if 6 <= hour < 9:
            pattern.append(morning)
        elif 9 <= hour < 16:
            pattern.append(midday)
        elif 16 <= hour < 22:
            pattern.append(evening)
        else:
            pattern.append(night)
    return tuple(pattern)


_FLAT_PATTERN = tuple(1.0 for __ in range(24))

#: The standard catalogue's appliances, built and validated once per process.
#: Appliances are frozen, so every standard library can share them.
_STANDARD_APPLIANCES: tuple[Appliance, ...] = (
    Appliance(
        name="electric_space_heating",
        category=ApplianceCategory.SPACE_HEATING,
        rated_power_kw=6.0,
        daily_energy_kwh=30.0,
        usage_pattern=_evening_morning_pattern(1.3, 0.9, 1.5, 1.0),
        flexibility=0.5,
    ),
    Appliance(
        name="hot_water_boiler",
        category=ApplianceCategory.WATER_HEATING,
        rated_power_kw=3.0,
        daily_energy_kwh=4.0,
        usage_pattern=_evening_morning_pattern(1.8, 0.6, 1.6, 0.5),
        flexibility=0.7,
        per_person=True,
    ),
    Appliance(
        name="washing_machine",
        category=ApplianceCategory.WHITE_GOODS,
        rated_power_kw=2.2,
        daily_energy_kwh=1.0,
        usage_pattern=_evening_morning_pattern(0.8, 0.9, 1.8, 0.1),
        flexibility=0.9,
        per_person=True,
    ),
    Appliance(
        name="dishwasher",
        category=ApplianceCategory.WHITE_GOODS,
        rated_power_kw=1.8,
        daily_energy_kwh=0.9,
        usage_pattern=_evening_morning_pattern(0.5, 0.4, 2.0, 0.4),
        flexibility=0.9,
        per_person=True,
    ),
    Appliance(
        name="tumble_dryer",
        category=ApplianceCategory.WHITE_GOODS,
        rated_power_kw=2.5,
        daily_energy_kwh=1.2,
        usage_pattern=_evening_morning_pattern(0.6, 0.8, 1.7, 0.2),
        flexibility=0.9,
        per_person=True,
    ),
    Appliance(
        name="fridge_freezer",
        category=ApplianceCategory.COLD_APPLIANCES,
        rated_power_kw=0.15,
        daily_energy_kwh=2.0,
        usage_pattern=_FLAT_PATTERN,
        flexibility=0.2,
    ),
    Appliance(
        name="electric_stove",
        category=ApplianceCategory.COOKING,
        rated_power_kw=7.0,
        daily_energy_kwh=2.5,
        usage_pattern=_evening_morning_pattern(1.0, 0.5, 2.6, 0.1),
        flexibility=0.3,
        per_person=True,
    ),
    Appliance(
        name="lighting",
        category=ApplianceCategory.LIGHTING,
        rated_power_kw=0.5,
        daily_energy_kwh=1.5,
        usage_pattern=_evening_morning_pattern(1.4, 0.4, 2.2, 0.5),
        flexibility=0.4,
    ),
    Appliance(
        name="entertainment_electronics",
        category=ApplianceCategory.ENTERTAINMENT,
        rated_power_kw=0.4,
        daily_energy_kwh=1.2,
        usage_pattern=_evening_morning_pattern(0.7, 0.5, 2.4, 0.6),
        flexibility=0.6,
        per_person=True,
    ),
    Appliance(
        name="miscellaneous",
        category=ApplianceCategory.OTHER,
        rated_power_kw=0.6,
        daily_energy_kwh=1.0,
        usage_pattern=_FLAT_PATTERN,
        flexibility=0.5,
    ),
)


def standard_appliance_library() -> ApplianceLibrary:
    """The default appliance catalogue used throughout the reproduction.

    Values are representative Nordic domestic figures (electric heating is
    common in the Swedish setting the paper describes); exact numbers matter
    only in that they produce a realistic evening peak (Figure 1).

    Each call returns a fresh library (``add`` on one never reaches another)
    over the same shared, frozen :class:`Appliance` objects.
    """
    return ApplianceLibrary(_STANDARD_APPLIANCES)
