"""Households: the domestic consumers of the paper.

A household owns a set of appliances (with household-specific usage scales),
has a size (number of persons — the paper notes that "a one person household
uses less electricity than a four persons household") and a *comfort
attitude* that determines how much inconvenience it accepts per unit of
reward.  The comfort attitude feeds the customer preference model in
:mod:`repro.agents.preferences`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.grid.appliances import Appliance, ApplianceLibrary, standard_appliance_library
from repro.grid.load_profile import LoadProfile
from repro.grid.weather import WeatherSample
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource

#: Household sizes (persons) and their sampling weights.
_SIZES = (1, 2, 3, 4, 5)
_SIZE_WEIGHTS = (0.25, 0.32, 0.18, 0.18, 0.07)


@dataclass(frozen=True)
class HouseholdProfile:
    """Static description of a household used to build agents and workloads.

    Attributes
    ----------
    household_id:
        Unique identifier (also used as the Customer Agent name suffix).
    size:
        Number of persons.
    ownership:
        Appliance name -> usage scale (0 = not owned).
    comfort_weight:
        How strongly the household values comfort over money; higher values
        mean larger rewards are required for the same cut-down.
    flexibility_scale:
        Household-level multiplier on appliance flexibility (some households
        simply cannot shift load, e.g. electric heating in poor insulation).
    """

    household_id: str
    size: int
    ownership: dict[str, float]
    comfort_weight: float
    flexibility_scale: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("household size must be positive")
        if self.comfort_weight <= 0:
            raise ValueError("comfort weight must be positive")
        if not 0.0 < self.flexibility_scale <= 1.5:
            raise ValueError("flexibility scale must be in (0, 1.5]")


class Household:
    """A household with behaviour: it can compute its demand and flexibility."""

    def __init__(
        self,
        profile: HouseholdProfile,
        library: Optional[ApplianceLibrary] = None,
        slots_per_day: int = 24,
    ) -> None:
        self.profile = profile
        self.library = library if library is not None else standard_appliance_library()
        self.slots_per_day = slots_per_day
        unknown = [name for name in profile.ownership if name not in self.library]
        if unknown:
            raise ValueError(f"household {profile.household_id!r} owns unknown appliances {unknown}")

    @property
    def household_id(self) -> str:
        return self.profile.household_id

    @property
    def size(self) -> int:
        return self.profile.size

    def owned_appliances(self) -> list[tuple[Appliance, float]]:
        """Appliances the household owns, with their usage scale."""
        return [
            (self.library.get(name), scale)
            for name, scale in self.profile.ownership.items()
            if scale > 0
        ]

    def demand_profile(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        """Daily demand of the household under the given weather."""
        heating_factor = weather.heating_factor if weather is not None else 1.0
        owned = self.owned_appliances()
        if not owned:
            return LoadProfile.zeros(self.slots_per_day)
        profiles = [
            appliance.daily_profile(
                slots_per_day=self.slots_per_day,
                household_size=self.profile.size,
                scale=scale,
                heating_factor=heating_factor,
            )
            for appliance, scale in owned
        ]
        return LoadProfile.aggregate(profiles)

    def saveable_energy(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> float:
        """Energy (kWh) the household could save in the interval.

        This is the quantity the Resource Consumer Agents report upward to
        the Customer Agent ("based on information received from its Resource
        Consumer Agents on the amount of electricity that can be saved in a
        given time interval").
        """
        heating_factor = weather.heating_factor if weather is not None else 1.0
        total = 0.0
        for appliance, scale in self.owned_appliances():
            profile = appliance.daily_profile(
                slots_per_day=self.slots_per_day,
                household_size=self.profile.size,
                scale=scale,
                heating_factor=heating_factor,
            )
            total += appliance.saveable_energy(profile, interval) * self.profile.flexibility_scale
        return total

    def max_cutdown_fraction(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> float:
        """Largest cut-down fraction the household can physically implement."""
        demand = self.demand_profile(weather).energy_in(interval)
        if demand <= 0:
            return 0.0
        return min(1.0, self.saveable_energy(interval, weather) / demand)

    @classmethod
    def generate(
        cls,
        household_id: str,
        random: RandomSource,
        library: Optional[ApplianceLibrary] = None,
        slots_per_day: int = 24,
    ) -> "Household":
        """Sample a realistic household."""
        library = library if library is not None else standard_appliance_library()
        size = random.choice(_SIZES, weights=_SIZE_WEIGHTS)
        ownership = library.sample_ownership(random, size)
        comfort_weight = max(0.3, random.lognormal(0.0, 0.35))
        flexibility_scale = min(1.2, max(0.2, random.normal(0.8, 0.2)))
        profile = HouseholdProfile(
            household_id=household_id,
            size=size,
            ownership=ownership,
            comfort_weight=comfort_weight,
            flexibility_scale=flexibility_scale,
        )
        return cls(profile, library, slots_per_day)
