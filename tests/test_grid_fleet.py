"""Tests for the columnar household fleet and its bit-identity contract.

Every fleet kernel must reproduce the scalar per-household path *bit for
bit* — not approximately — because the planner's fleet/scalar equivalence
guarantee (and hence campaign determinism across planning modes) rests on it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.grid.appliances import (
    Appliance,
    ApplianceCategory,
    ApplianceLibrary,
    standard_appliance_library,
)
from repro.grid.demand import DemandModel, PopulationDemand
from repro.grid.fleet import (
    BucketedFleet,
    FleetIncompatibleError,
    HouseholdFleet,
    pack_fleet,
)
from repro.grid.household import Household, HouseholdProfile
from repro.grid.prediction import ConsumptionPredictor, PredictionModel
from repro.grid.weather import WeatherCondition, WeatherSample
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource


@pytest.fixture(scope="module")
def households():
    random = RandomSource(11, "fleet_test")
    return [Household.generate(f"h{i:03d}", random.spawn(f"h{i}")) for i in range(60)]


@pytest.fixture(scope="module")
def fleet(households):
    return HouseholdFleet(households)


@pytest.fixture(params=[None, "cold"])
def weather(request):
    if request.param is None:
        return None
    return WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)


@pytest.fixture
def interval():
    return TimeInterval.from_hours(16, 21)


class TestFleetKernels:
    def test_demand_profiles_bit_identical(self, fleet, households, weather):
        matrix = fleet.demand_profiles(weather)
        assert matrix.shape == (len(households), 24)
        for row, household in zip(matrix, households):
            assert np.array_equal(row, household.demand_profile(weather).as_array())

    def test_energy_in_bit_identical(self, fleet, households, weather, interval):
        energies = fleet.energy_in(interval, weather)
        for energy, household in zip(energies, households):
            assert energy == household.demand_profile(weather).energy_in(interval)

    def test_average_in_bit_identical(self, fleet, households, weather, interval):
        averages = fleet.average_in(interval, weather)
        for average, household in zip(averages, households):
            assert average == household.demand_profile(weather).average_in(interval)

    def test_saveable_energy_bit_identical(self, fleet, households, weather, interval):
        saveable = fleet.saveable_energy(interval, weather)
        for energy, household in zip(saveable, households):
            assert energy == household.saveable_energy(interval, weather)

    def test_max_cutdown_fractions_bit_identical(self, fleet, households, weather, interval):
        fractions = fleet.max_cutdown_fractions(interval, weather)
        for fraction, household in zip(fractions, households):
            assert fraction == household.max_cutdown_fraction(interval, weather)

    def test_aggregate_demand_matches_scalar_aggregation(self, fleet, households, weather):
        from repro.grid.load_profile import LoadProfile

        expected = LoadProfile.aggregate(
            household.demand_profile(weather) for household in households
        )
        assert fleet.aggregate_demand(weather).values == expected.values

    def test_demand_matrix_is_cached_and_read_only(self, fleet):
        first = fleet.demand_profiles(None)
        assert fleet.demand_profiles(None) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


class TestFleetCompatibility:
    def test_requires_households(self):
        # A plain ValueError, *not* FleetIncompatibleError: callers treat the
        # latter as a fall-back-to-scalar signal, and an empty population is
        # misuse that must fail loudly at the boundary instead.
        with pytest.raises(ValueError) as excinfo:
            HouseholdFleet([])
        assert not isinstance(excinfo.value, FleetIncompatibleError)
        with pytest.raises(ValueError) as excinfo:
            BucketedFleet([])
        assert not isinstance(excinfo.value, FleetIncompatibleError)
        with pytest.raises(ValueError) as excinfo:
            pack_fleet([])
        assert not isinstance(excinfo.value, FleetIncompatibleError)

    def test_rejects_mixed_resolutions(self, households):
        library = standard_appliance_library()
        odd = Household.generate("odd", RandomSource(1, "odd"), library, slots_per_day=48)
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet([households[0], odd])

    def test_rejects_out_of_library_order_ownership(self):
        library = standard_appliance_library()
        names = library.names
        profile = HouseholdProfile(
            household_id="reversed",
            size=2,
            ownership={names[3]: 1.0, names[0]: 1.0},
            comfort_weight=1.0,
            flexibility_scale=0.8,
        )
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet([Household(profile, library)])

    def test_rejects_different_libraries(self, households):
        other = ApplianceLibrary([
            Appliance(
                name="only_heating",
                category=ApplianceCategory.SPACE_HEATING,
                rated_power_kw=5.0,
                daily_energy_kwh=20.0,
                usage_pattern=tuple(1.0 for __ in range(24)),
                flexibility=0.5,
            )
        ])
        profile = HouseholdProfile(
            household_id="alien", size=2, ownership={"only_heating": 1.0},
            comfort_weight=1.0, flexibility_scale=0.8,
        )
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet([households[0], Household(profile, other)])

    def test_equal_value_library_is_accepted(self, households):
        clone = standard_appliance_library()
        profile = HouseholdProfile(
            household_id="clone", size=2,
            ownership={name: 1.0 for name in clone.names},
            comfort_weight=1.0, flexibility_scale=0.8,
        )
        fleet = HouseholdFleet([households[0], Household(profile, clone)])
        assert len(fleet) == 2


class TestColumnarDemandModel:
    def test_realise_matches_scalar_path(self, households):
        cold = WeatherSample(temperature_c=-15.0, condition=WeatherCondition.COLD)
        columnar = DemandModel(households, RandomSource(5, "d")).realise(cold)
        scalar = DemandModel(households, RandomSource(5, "d"))._realise_scalar(cold)
        assert columnar.household_ids == scalar.household_ids
        for household_id in columnar.household_ids:
            assert columnar.household(household_id).values == scalar.household(household_id).values
        assert columnar.aggregate.values == scalar.aggregate.values

    def test_population_demand_matrix_round_trip(self, households):
        demand = DemandModel(households, RandomSource(6, "d")).realise(None)
        matrix = demand.matrix()
        profiles = demand.household_profiles
        for row, household_id in zip(matrix, demand.household_ids):
            assert tuple(float(v) for v in row) == profiles[household_id].values


class TestColumnarPredictor:
    @pytest.mark.parametrize("model", list(PredictionModel))
    def test_predict_columnar_matches_object_view(self, households, model):
        cold = WeatherSample(temperature_c=-18.0, condition=WeatherCondition.SEVERE_COLD)
        demand_model = DemandModel(households, RandomSource(8, "d"))
        predictor = ConsumptionPredictor(model)
        predictor.observe_many([demand_model.realise(cold) for __ in range(4)])
        columnar = predictor.predict_columnar(cold)
        objects = predictor.predict(cold)
        assert list(columnar.household_ids) == list(objects.per_household)
        for household_id, row in zip(columnar.household_ids, columnar.matrix):
            assert tuple(float(v) for v in row) == objects.per_household[household_id].values
        assert columnar.aggregate.values == objects.aggregate.values
        interval = TimeInterval.from_hours(17, 20)
        vector = columnar.average_in(interval)
        mapping = objects.household_prediction_in(interval)
        for household_id, value in zip(columnar.household_ids, vector):
            assert value == mapping[household_id]

    def test_observe_realigns_shuffled_household_order(self, households):
        day_one = DemandModel(households, RandomSource(9, "d")).realise(None)
        profiles = day_one.household_profiles
        shuffled = dict(reversed(list(profiles.items())))
        predictor = ConsumptionPredictor()
        predictor.observe(day_one)
        predictor.observe(PopulationDemand(shuffled))
        prediction = predictor.predict()
        # Both days carry identical profiles per id, so the mean equals day one.
        for household_id, profile in profiles.items():
            assert prediction.per_household[household_id].values == profile.values

    def test_observe_rejects_different_households(self, households):
        predictor = ConsumptionPredictor()
        predictor.observe(DemandModel(households[:5], RandomSource(1, "a")).realise(None))
        with pytest.raises(ValueError):
            predictor.observe(DemandModel(households[5:10], RandomSource(2, "b")).realise(None))

    def test_observe_realigns_a_reordered_fleet_day(self, households):
        # Aligned fleet days skip the id-set check; a later day in another
        # order must still be realigned onto the first day's rows.
        demand_model = DemandModel(households[:8], RandomSource(4, "d"))
        predictor = ConsumptionPredictor()
        predictor.observe(demand_model.realise(None))
        predictor.observe(demand_model.realise(None))
        day = demand_model.realise(None)
        order = [3, 0, 7, 1, 6, 2, 5, 4]
        ids = day.household_ids
        predictor.observe(
            PopulationDemand(
                household_ids=[ids[row] for row in order], matrix=day.matrix()[order]
            )
        )
        assert predictor._chronological_history()[-1].tobytes() == day.matrix().tobytes()

    def test_observe_rejects_a_day_with_one_different_id(self, households):
        demand_model = DemandModel(households[:6], RandomSource(5, "d"))
        predictor = ConsumptionPredictor()
        predictor.observe(demand_model.realise(None))
        predictor.observe(demand_model.realise(None))
        day = demand_model.realise(None)
        renamed = day.household_ids
        renamed[-1] = "not-in-the-fleet"
        with pytest.raises(ValueError):
            predictor.observe(PopulationDemand(household_ids=renamed, matrix=day.matrix()))
        assert predictor.history_length == 2

    def test_history_buffer_grows_incrementally(self, households):
        demand_model = DemandModel(households[:3], RandomSource(3, "d"))
        predictor = ConsumptionPredictor()
        for day in range(20):
            predictor.observe(demand_model.realise(None))
            assert predictor.history_length == day + 1
        assert predictor._buffer.shape[0] >= 20
        predictor.predict()


def _alt_library() -> ApplianceLibrary:
    """A second, value-distinct appliance catalogue for mixed-library tests."""
    flat = tuple(1.0 for __ in range(24))
    return ApplianceLibrary(
        [
            Appliance(
                name="alt_heating",
                category=ApplianceCategory.SPACE_HEATING,
                rated_power_kw=6.0,
                daily_energy_kwh=18.0,
                usage_pattern=flat,
                flexibility=0.6,
            ),
            Appliance(
                name="alt_lighting",
                category=ApplianceCategory.LIGHTING,
                rated_power_kw=0.4,
                daily_energy_kwh=2.0,
                usage_pattern=flat,
                flexibility=0.3,
                per_person=True,
            ),
        ]
    )


def make_mixed_households(count: int = 30) -> list[Household]:
    """A deliberately heterogeneous population: library-ordered ownership,
    permuted (reversed) ownership-dict order, a second library, and one
    appliance-less household — every signature a single HouseholdFleet
    rejects."""
    random = RandomSource(21, "mixed_fleet")
    standard = standard_appliance_library()
    alt = _alt_library()
    households: list[Household] = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            households.append(
                Household.generate(f"m{i:03d}", random.spawn(f"m{i}"), standard)
            )
        elif kind == 1:
            ownership = standard.sample_ownership(random.spawn(f"perm{i}"), household_size=3)
            permuted = dict(reversed(list(ownership.items())))
            profile = HouseholdProfile(
                household_id=f"m{i:03d}",
                size=3,
                ownership=permuted,
                comfort_weight=1.0 + 0.01 * i,
                flexibility_scale=0.8,
            )
            households.append(Household(profile, standard))
        else:
            profile = HouseholdProfile(
                household_id=f"m{i:03d}",
                size=2,
                ownership={"alt_heating": 1.0, "alt_lighting": 0.8},
                comfort_weight=1.2,
                flexibility_scale=1.0,
            )
            households.append(Household(profile, alt))
    bare = HouseholdProfile(
        household_id="m_bare",
        size=1,
        ownership={},
        comfort_weight=1.0,
        flexibility_scale=0.5,
    )
    households.append(Household(bare, standard))
    return households


@pytest.fixture(scope="module")
def mixed_households():
    return make_mixed_households()


@pytest.fixture(scope="module")
def bucketed(mixed_households):
    fleet = pack_fleet(mixed_households)
    assert isinstance(fleet, BucketedFleet)
    return fleet


class TestApplianceOrder:
    """HouseholdFleet's per-bucket column permutation support."""

    def test_permuted_order_packs_and_matches_scalar(self, weather, interval):
        standard = standard_appliance_library()
        ownership = standard.sample_ownership(RandomSource(3, "p").spawn("h"), household_size=2)
        permuted = dict(reversed(list(ownership.items())))
        profile = HouseholdProfile(
            household_id="perm", size=2, ownership=permuted,
            comfort_weight=1.0, flexibility_scale=0.9,
        )
        household = Household(profile, standard)
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet([household])  # library order still rejects
        fleet = HouseholdFleet(
            [household], appliance_order=tuple(permuted.keys())
        )
        assert np.array_equal(
            fleet.demand_profiles(weather)[0],
            household.demand_profile(weather).as_array(),
        )
        assert fleet.saveable_energy(interval, weather)[0] == (
            household.saveable_energy(interval, weather)
        )

    def test_order_must_cover_owned_appliances(self):
        standard = standard_appliance_library()
        names = standard.names
        profile = HouseholdProfile(
            household_id="h", size=2, ownership={names[0]: 1.0, names[1]: 1.0},
            comfort_weight=1.0, flexibility_scale=0.9,
        )
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet([Household(profile, standard)], appliance_order=(names[0],))

    def test_order_rejects_unknown_and_duplicate_names(self, households):
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet(households[:1], appliance_order=("no_such_appliance",))
        names = standard_appliance_library().names
        with pytest.raises(FleetIncompatibleError):
            HouseholdFleet(households[:1], appliance_order=(names[0], names[0]))


class TestBucketedFleet:
    """Bucketed kernels must match the scalar oracle bit for bit, per row."""

    def test_pack_fleet_prefers_single_fleet(self, households):
        assert isinstance(pack_fleet(households), HouseholdFleet)

    def test_buckets_are_bounded_by_signatures(self, bucketed):
        # generated + permuted-sample + alt-library + bare: signatures stay
        # a handful even though owned subsets vary household to household.
        assert 2 <= bucketed.num_buckets <= 6
        assert sum(len(rows) for rows, __ in bucketed.buckets) == len(bucketed)

    def test_population_order_preserved(self, bucketed, mixed_households):
        assert bucketed.household_ids == [h.household_id for h in mixed_households]

    def test_demand_profiles_bit_identical(self, bucketed, mixed_households, weather):
        matrix = bucketed.demand_profiles(weather)
        assert matrix.shape == (len(mixed_households), 24)
        for row, household in zip(matrix, mixed_households):
            assert np.array_equal(row, household.demand_profile(weather).as_array())

    def test_energy_in_bit_identical(self, bucketed, mixed_households, weather, interval):
        energies = bucketed.energy_in(interval, weather)
        for energy, household in zip(energies, mixed_households):
            assert energy == household.demand_profile(weather).energy_in(interval)

    def test_average_in_bit_identical(self, bucketed, mixed_households, weather, interval):
        averages = bucketed.average_in(interval, weather)
        for average, household in zip(averages, mixed_households):
            assert average == household.demand_profile(weather).average_in(interval)

    def test_saveable_energy_bit_identical(self, bucketed, mixed_households, weather, interval):
        saveable = bucketed.saveable_energy(interval, weather)
        for energy, household in zip(saveable, mixed_households):
            assert energy == household.saveable_energy(interval, weather)

    def test_max_cutdown_fractions_bit_identical(self, bucketed, mixed_households, weather, interval):
        fractions = bucketed.max_cutdown_fractions(interval, weather)
        for fraction, household in zip(fractions, mixed_households):
            assert fraction == household.max_cutdown_fraction(interval, weather)

    def test_aggregate_demand_matches_scalar_aggregation(self, bucketed, mixed_households, weather):
        from repro.grid.load_profile import LoadProfile

        expected = LoadProfile.aggregate(
            household.demand_profile(weather) for household in mixed_households
        )
        assert bucketed.aggregate_demand(weather).values == expected.values

    def test_demand_matrix_is_cached_and_read_only(self, bucketed):
        first = bucketed.demand_profiles(None)
        assert bucketed.demand_profiles(None) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_rejects_mixed_resolutions(self, mixed_households):
        odd = Household.generate(
            "odd", RandomSource(1, "odd"), standard_appliance_library(),
            slots_per_day=48,
        )
        with pytest.raises(FleetIncompatibleError):
            BucketedFleet(mixed_households + [odd])
        with pytest.raises(FleetIncompatibleError):
            pack_fleet(mixed_households + [odd])

    def test_realise_matches_scalar_path(self, mixed_households):
        cold = WeatherSample(temperature_c=-15.0, condition=WeatherCondition.COLD)
        model = DemandModel(mixed_households, RandomSource(5, "d"))
        assert isinstance(model._fleet, BucketedFleet)
        assert model.fallback_reason is None
        columnar = model.realise(cold)
        scalar = DemandModel(
            mixed_households, RandomSource(5, "d")
        )._realise_scalar(cold)
        assert columnar.household_ids == scalar.household_ids
        for household_id in columnar.household_ids:
            assert columnar.household(household_id).values == (
                scalar.household(household_id).values
            )

    def test_mixed_resolutions_record_fallback_reason(self, mixed_households):
        odd = Household.generate(
            "odd", RandomSource(1, "odd"), standard_appliance_library(),
            slots_per_day=48,
        )
        model = DemandModel(mixed_households[:3] + [odd], RandomSource(5, "d"))
        assert model._fleet is None
        assert "resolution" in model.fallback_reason


@pytest.fixture(params=["single", "bucketed"])
def layout(request, households, mixed_households):
    """A fresh fleet (cold demand cache) of either layout, with its households."""
    if request.param == "single":
        return HouseholdFleet(households), households
    return BucketedFleet(mixed_households), mixed_households


def _spy_on_passes(calls: list):
    """Patch ``HouseholdFleet._appliance_powers`` to log ``(heating factor, block)``."""
    original = HouseholdFleet._appliance_powers

    def spy(self, heating_factor, block=None):
        calls.append((heating_factor, block))
        return original(self, heating_factor, block)

    return mock.patch.object(HouseholdFleet, "_appliance_powers", spy)


class TestFusedPass:
    """``demand_and_saveable``: demand matrix and saveable energy from one pass."""

    @pytest.mark.parametrize("hours", [(0, 24), (16, 21)], ids=["whole_day", "evening"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold_cache", "warm_cache"])
    def test_bit_identical_to_scalar(self, layout, weather, hours, warm):
        fleet, members = layout
        interval = TimeInterval.from_hours(*hours)
        precomputed = fleet.demand_profiles(weather) if warm else None
        demand, saveable = fleet.demand_and_saveable(interval, weather)
        if warm:
            assert demand is precomputed
        energies = fleet.energy_in(interval, weather)
        fractions = fleet.max_cutdown_fractions(interval, weather)
        for row, household in enumerate(members):
            profile = household.demand_profile(weather)
            assert np.array_equal(demand[row], profile.as_array())
            assert energies[row] == profile.energy_in(interval)
            assert saveable[row] == household.saveable_energy(interval, weather)
            assert fractions[row] == household.max_cutdown_fraction(interval, weather)

    def test_cached_demand_is_read_only_and_matches_demand_profiles(
        self, layout, weather, interval
    ):
        fleet, members = layout
        demand, __ = fleet.demand_and_saveable(interval, weather)
        assert fleet.demand_profiles(weather) is demand
        assert not demand.flags.writeable
        with pytest.raises(ValueError):
            demand[0, 0] = 1.0
        separately = type(fleet)(members).demand_profiles(weather)
        assert np.array_equal(demand, separately)

    def test_cold_cache_streams_once_warm_cache_streams_the_interval(
        self, households, interval
    ):
        fleet = HouseholdFleet(households)
        calls: list = []
        with _spy_on_passes(calls):
            fleet.saveable_energy(interval)
            fleet.energy_in(interval)
            assert calls == [(1.0, None)]
            # Same weather again: demand is cached, only the interval streams.
            fleet.saveable_energy(interval)
        assert calls[1] == (1.0, slice(16, 21))


@pytest.mark.perf_smoke
def test_campaign_streams_each_weather_once():
    """One full-width appliance pass per distinct heating factor in a campaign.

    Planning, accounting and observation all read the weather's cached
    demand matrix; saveable energy rides the same pass, and streams again —
    over the peak interval only — at most once per planned day.
    """
    from repro.api import campaign
    from repro.experiments.campaign_bench import build_campaign_planner

    planner = build_campaign_planner(1000, seed=0)
    calls: list = []
    with _spy_on_passes(calls):
        result = campaign(
            planner, 4,
            conditions=(WeatherCondition.MILD, WeatherCondition.SEVERE_COLD),
            seed=0,
        )
    seen = {factor for factor, __ in calls}
    full = [factor for factor, block in calls if block is None]
    narrow = [factor for factor, block in calls if block is not None]
    assert {day.weather.heating_factor for day in result.days} <= seen
    assert any(day.negotiated for day in result.days)
    assert sorted(full) == sorted(seen)
    assert len(narrow) <= len(result.days)
    # A narrower pass only happens for a weather whose demand was cached
    # before its day was planned.  Here the warm-up and every day have
    # distinct weathers, so saveable energy never streams a second time.
    assert len(seen) == len(result.days) + 1
    assert narrow == []
