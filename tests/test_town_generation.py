"""Town generation: pinned draws, one shared standard catalogue, one fleet."""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import pytest

from repro.grid.appliances import (
    Appliance,
    ApplianceCategory,
    standard_appliance_library,
)
from repro.grid.fleet import HouseholdFleet, pack_fleet
from repro.grid.household import Household
from repro.runtime.rng import RandomSource

#: sha256 over (id, size, ownership items in order, comfort weight,
#: flexibility scale) of the 500-household town below, recorded when every
#: household still built its own appliance catalogue and weighted choices went
#: through ``numpy.random.Generator.choice``.  Any change to a drawn number
#: breaks it.
GOLDEN_TOWN_SHA256 = "2212df005c0c0c526b9cd8670a302dc55d612faeb87d834097e8cf192f2c9f21"


def generate_town(num_households: int, seed: int = 20260) -> list[Household]:
    """Households drawn the way the campaign benchmarks draw them."""
    random = RandomSource(seed, "golden_town")
    return [
        Household.generate(f"h{i}", random.spawn(f"h{i}"))
        for i in range(num_households)
    ]


def town_digest(households: list[Household]) -> str:
    digest = hashlib.sha256()
    for household in households:
        profile = household.profile
        digest.update(
            repr(
                (
                    profile.household_id,
                    profile.size,
                    tuple(profile.ownership.items()),
                    profile.comfort_weight,
                    profile.flexibility_scale,
                )
            ).encode()
        )
    return digest.hexdigest()


class TestTownGeneration:
    def test_golden_town(self):
        assert town_digest(generate_town(500)) == GOLDEN_TOWN_SHA256

    def test_standard_library_is_fresh_on_every_call(self):
        first, second = standard_appliance_library(), standard_appliance_library()
        assert first is not second
        first.add(
            Appliance(
                name="sauna",
                category=ApplianceCategory.OTHER,
                rated_power_kw=6.0,
                daily_energy_kwh=3.0,
                usage_pattern=tuple(1.0 for _ in range(24)),
                flexibility=0.8,
            )
        )
        assert "sauna" in first
        assert "sauna" not in second
        assert "sauna" not in standard_appliance_library()

    def test_standard_appliances_are_shared_and_frozen(self):
        first, second = standard_appliance_library(), standard_appliance_library()
        assert all(a is b for a, b in zip(first.all(), second.all(), strict=True))
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.all()[0].flexibility = 1.0

    def test_default_library_town_packs_as_one_fleet(self):
        households = generate_town(60)
        assert len({id(household.library) for household in households}) == 60
        assert type(pack_fleet(households)) is HouseholdFleet


@pytest.mark.perf_smoke
def test_town_generation_builds_no_appliances():
    standard_appliance_library()
    original = Appliance.__post_init__
    with mock.patch.object(
        Appliance, "__post_init__", autospec=True, side_effect=original
    ) as post_init:
        generate_town(1000)
        assert post_init.call_count == 0
        # The patch does see construction: one new appliance counts once.
        dataclasses.replace(standard_appliance_library().all()[0], flexibility=0.1)
    assert post_init.call_count == 1
