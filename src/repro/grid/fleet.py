"""Columnar household fleets: struct-of-arrays kernels over a population.

The planning layer of the Utility Agent (Section 5.1's observe → predict →
negotiate loop) repeatedly needs the same three quantities for *every*
household of a population: its daily demand profile under tomorrow's weather,
the energy it has at stake in the predicted peak interval and the largest
cut-down its appliances could physically deliver (what its Resource Consumer
Agents would report).  The object model computes each of these one household
at a time, rebuilding ~10 appliance profiles per call — fine for the
prototype's handful of customers, ruinous for 10k-household day-ahead
planning.

:class:`HouseholdFleet` is the columnar view: household attributes (appliance
ownership scales, sizes, comfort weights, flexibility scales) and appliance
parameters (slot weights, daily energies, rated-power caps, flexibilities)
are packed into numpy arrays once, and the per-household quantities come out
of batched kernels — ``demand_profiles``, ``energy_in``, ``saveable_energy``
and ``max_cutdown_fractions``.

**Exactness contract.**  Every kernel mirrors the scalar code in
:class:`~repro.grid.household.Household` and
:class:`~repro.grid.appliances.Appliance` operation-for-operation (same float
multiplication order, same sequential accumulation over appliances and time
slots, powers precomputed with Python ``**``), so the fleet path is
*bit-identical* to the per-household object path — the same guarantee
:class:`~repro.agents.vectorized.VectorizedPopulation` gives the negotiation
kernels.  ``tests/test_grid_fleet.py`` enforces it per household.

A plain :class:`HouseholdFleet` requires a *homogeneous* population: all
households share one appliance library, one profile resolution, and list
their owned appliances in a common column order (which
:meth:`Household.generate` guarantees).  :class:`BucketedFleet` lifts that
restriction: it groups households by appliance signature (library identity by
value, ownership-dict column order), builds one :class:`HouseholdFleet` per
bucket with a per-bucket column permutation, and scatters kernel results back
into population order — still bit-identical per household.  Callers should
use :func:`pack_fleet`, which picks the single-fleet layout when it applies
and the bucketed one otherwise; only genuinely unpackable populations (mixed
profile resolutions) raise :class:`FleetIncompatibleError`, and callers fall
back to the scalar per-household path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.grid.appliances import ApplianceCategory
from repro.grid.household import Household
from repro.grid.load_profile import LoadProfile, matrix_average_in
from repro.grid.weather import WeatherSample
from repro.runtime.clock import TimeInterval

#: Heating-driven appliance categories (their energy scales with the weather's
#: heating factor, mirroring :meth:`Appliance.daily_profile`).
_HEATING_CATEGORIES = (ApplianceCategory.SPACE_HEATING, ApplianceCategory.WATER_HEATING)

#: Per-fleet cache bound on the weather-keyed demand matrices.  A campaign
#: touches one heating factor per day; a handful of slots covers the planner's
#: predict/plan/account calls for that day without unbounded growth.  Only the
#: (N, S) demand matrix is retained per factor — the per-appliance power
#: matrices, an order of magnitude more memory (A·N·S), are streamed and
#: never cached, keeping a 100k-household fleet's footprint to O(N·S).
_WEATHER_CACHE_SIZE = 4


class FleetIncompatibleError(ValueError):
    """The households cannot be packed into one columnar fleet."""


def _interval_slot_indices(interval: TimeInterval, slots_per_day: int) -> list[int]:
    if interval.slots_per_day != slots_per_day:
        raise ValueError(
            f"interval resolution {interval.slots_per_day} does not match "
            f"fleet resolution {slots_per_day}"
        )
    return [slot.index for slot in interval.slots()]


class HouseholdFleet:
    """All planning-relevant attributes of a household population, as arrays.

    Attributes
    ----------
    households:
        The packed :class:`~repro.grid.household.Household` objects, in fleet
        order; every array below is aligned with this order.
    household_ids:
        Household identifiers, in fleet order.
    sizes / comfort_weights / flexibility_scales:
        Per-household attribute vectors (``(N,)``).
    ownership:
        ``(N, A)`` matrix of appliance usage scales (0 = not owned), with
        appliance columns in library order.
    """

    def __init__(
        self,
        households: Sequence[Household],
        appliance_order: Optional[Sequence[str]] = None,
    ) -> None:
        if not households:
            # Plain ValueError, deliberately *not* FleetIncompatibleError:
            # callers treat the latter as a fall-back-to-scalar signal, and an
            # empty population is misuse that must fail loudly at the boundary.
            raise ValueError("a fleet needs at least one household")
        self.households = list(households)
        first = self.households[0]
        self.slots_per_day = first.slots_per_day
        self.library = first.library
        library_appliances = self.library.all()
        if appliance_order is None:
            names = self.library.names
        else:
            names = list(appliance_order)
            unknown = [name for name in names if name not in self.library]
            if unknown:
                raise FleetIncompatibleError(
                    f"appliance order names unknown appliances: {unknown!r}"
                )
            if len(set(names)) != len(names):
                raise FleetIncompatibleError("appliance order repeats a column")
        appliances = [self.library.get(name) for name in names]
        index_of = {name: column for column, name in enumerate(names)}
        ownership_rows = []
        for household in self.households:
            if household.slots_per_day != self.slots_per_day:
                raise FleetIncompatibleError(
                    "all fleet households must share one profile resolution"
                )
            if (
                household.library is not self.library
                and household.library.all() != library_appliances
            ):
                raise FleetIncompatibleError(
                    "all fleet households must share one appliance library"
                )
            # The scalar path aggregates appliances in ownership-dict order;
            # the fleet aggregates in column order.  Bit-identity therefore
            # requires the owned appliances to appear in column order (the
            # library's by default, or the caller's ``appliance_order``
            # permutation — how BucketedFleet packs households whose
            # ownership dicts are not library-ordered).
            try:
                owned_columns = [
                    index_of[name]
                    for name, scale in household.profile.ownership.items()
                    if scale > 0
                ]
            except KeyError as exc:
                raise FleetIncompatibleError(
                    f"household {household.household_id!r} owns an appliance "
                    f"outside the fleet's column order: {exc.args[0]!r}"
                ) from None
            if owned_columns != sorted(owned_columns):
                raise FleetIncompatibleError(
                    f"household {household.household_id!r} lists owned "
                    f"appliances out of column order"
                )
            ownership_rows.append(
                [household.profile.ownership.get(name, 0.0) for name in names]
            )
        self.household_ids = [h.household_id for h in self.households]
        self.sizes = np.array([float(h.size) for h in self.households])
        self.comfort_weights = np.array(
            [h.profile.comfort_weight for h in self.households]
        )
        self.flexibility_scales = np.array(
            [h.profile.flexibility_scale for h in self.households]
        )
        self.ownership = np.array(ownership_rows, dtype=float).reshape(
            len(self.households), len(appliances)
        )
        # Per-appliance static columns (one column per ``names`` entry).
        self._appliances = appliances
        self._daily_energies = np.array([a.daily_energy_kwh for a in appliances])
        self._rated_powers = np.array([a.rated_power_kw for a in appliances])
        self._flexibilities = np.array([a.flexibility for a in appliances])
        self._per_person = [a.per_person for a in appliances]
        self._heating = [a.category in _HEATING_CATEGORIES for a in appliances]
        if appliances:
            self._slot_weights = np.stack(
                [a.slot_weights(self.slots_per_day) for a in appliances]
            )
            # Rated-power caps are weather-independent:
            # rated * (size | 1) * max(scale, 1).
            self._caps = np.stack(
                [
                    (
                        self._rated_powers[column] * self.sizes
                        if self._per_person[column]
                        else np.full(len(self.households), self._rated_powers[column])
                    )
                    * np.maximum(self.ownership[:, column], 1.0)
                    for column in range(len(appliances))
                ]
            )  # (A, N)
        else:  # a bucket of appliance-less households still packs cleanly
            self._slot_weights = np.zeros((0, self.slots_per_day))
            self._caps = np.zeros((0, len(self.households)))
        #: Weather-keyed demand-matrix cache (heating factor -> (N, S) array),
        #: FIFO-bounded.
        self._demand_cache: dict[float, np.ndarray] = {}

    # -- basic views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.households)

    @property
    def num_appliances(self) -> int:
        return len(self._appliances)

    @staticmethod
    def heating_factor(weather: Optional[WeatherSample]) -> float:
        return weather.heating_factor if weather is not None else 1.0

    # -- kernels -----------------------------------------------------------------

    def _appliance_powers(self, heating_factor: float):
        """Per-appliance ``(N, S)`` power matrices, mirroring ``daily_profile``.

        A generator: callers accumulate one appliance at a time, so only one
        ``(N, S)`` intermediate is ever alive — the full ``A`` matrices at
        once would cost hundreds of MB for a 100k-household fleet, which is
        why they are streamed rather than cached.
        """
        slot_hours = 24.0 / self.slots_per_day
        for column in range(self.num_appliances):
            # Same multiplication order as Appliance.daily_profile: base
            # energy x ownership scale, then x household size (per-person
            # appliances), then x heating factor (heating categories).
            energy = self._daily_energies[column] * self.ownership[:, column]
            if self._per_person[column]:
                energy = energy * self.sizes
            if self._heating[column]:
                energy = energy * heating_factor
            per_slot = self._slot_weights[column][None, :] * energy[:, None]
            power = per_slot / slot_hours
            yield column, np.minimum(power, self._caps[column][:, None])

    def demand_profiles(self, weather: Optional[WeatherSample] = None) -> np.ndarray:
        """``(N, S)`` matrix of per-household daily demand (kW per slot).

        Row ``i`` is bit-identical to
        ``households[i].demand_profile(weather).as_array()``.
        """
        factor = self.heating_factor(weather)
        cached = self._demand_cache.get(factor)
        if cached is not None:
            return cached
        total = np.zeros((len(self.households), self.slots_per_day))
        for __, power in self._appliance_powers(factor):
            # Sequential accumulation in library order matches the scalar
            # LoadProfile.aggregate over owned appliances (adding an unowned
            # appliance's exact 0.0 contribution preserves every bit).
            total = total + power
        total.setflags(write=False)
        if len(self._demand_cache) >= _WEATHER_CACHE_SIZE:
            self._demand_cache.pop(next(iter(self._demand_cache)))
        self._demand_cache[factor] = total
        return total

    def aggregate_demand(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        """Population aggregate profile; equals summing the per-household profiles."""
        return LoadProfile.from_array(self.demand_profiles(weather).sum(axis=0))

    @staticmethod
    def _interval_energy(matrix: np.ndarray, indices: Sequence[int], slot_hours: float) -> np.ndarray:
        """Per-row interval energy with the scalar path's summation order."""
        total = np.zeros(matrix.shape[0])
        for index in indices:
            total = total + matrix[:, index]
        return total * slot_hours

    def energy_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household energy (kWh) used during the interval (``(N,)``)."""
        indices = _interval_slot_indices(interval, self.slots_per_day)
        slot_hours = 24.0 / self.slots_per_day
        return self._interval_energy(self.demand_profiles(weather), indices, slot_hours)

    def average_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household average demand (kW) during the interval (``(N,)``)."""
        _interval_slot_indices(interval, self.slots_per_day)  # resolution check
        return matrix_average_in(self.demand_profiles(weather), interval)

    def saveable_energy(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household saveable energy (kWh) in the interval (``(N,)``).

        What the Resource Consumer Agents report upward: each appliance's
        interval energy times its flexibility, scaled by the household's
        flexibility scale, accumulated in library order like the scalar
        :meth:`Household.saveable_energy`.
        """
        indices = _interval_slot_indices(interval, self.slots_per_day)
        slot_hours = 24.0 / self.slots_per_day
        factor = self.heating_factor(weather)
        total = np.zeros(len(self.households))
        for column, power in self._appliance_powers(factor):
            energy = self._interval_energy(power, indices, slot_hours)
            total = total + (energy * self._flexibilities[column]) * self.flexibility_scales
        return total

    def max_cutdown_fractions(
        self,
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
        demand_energies: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Largest physically implementable cut-down fraction per household.

        ``demand_energies`` lets callers that already hold
        ``energy_in(interval, weather)`` skip recomputing it.
        """
        demand = (
            demand_energies
            if demand_energies is not None
            else self.energy_in(interval, weather)
        )
        saveable = self.saveable_energy(interval, weather)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.minimum(1.0, saveable / demand)
        return np.where(demand > 0, fractions, 0.0)


class BucketedFleet:
    """A heterogeneous population packed as per-signature sub-fleets.

    Households are grouped by appliance signature — their library (compared
    by value, like :class:`HouseholdFleet`) and the column order of their
    ownership dict — and each bucket becomes one :class:`HouseholdFleet`
    whose columns follow that bucket's ownership-dict order.  Because every
    household's *owned* appliances are a subsequence of its ownership-dict
    keys, the per-bucket column permutation always satisfies the fleet's
    order check, and each kernel row keeps the scalar path's accumulation
    order: bucketed results are bit-identical to the per-household loop.

    Kernel results are scattered back into population order, so the class
    exposes the same surface as :class:`HouseholdFleet` (``demand_profiles``,
    ``energy_in``, ``average_in``, ``saveable_energy``,
    ``max_cutdown_fractions``, ``aggregate_demand`` and the per-household
    attribute vectors) and is a drop-in replacement for planning callers.

    Only mixed profile *resolutions* remain unpackable and raise
    :class:`FleetIncompatibleError`.
    """

    def __init__(self, households: Sequence[Household]) -> None:
        if not households:
            raise ValueError("a fleet needs at least one household")
        self.households = list(households)
        self.slots_per_day = self.households[0].slots_per_day
        self._libraries: list = []
        token_by_id: dict[int, int] = {}
        groups: dict[tuple, list[int]] = {}
        for row, household in enumerate(self.households):
            if household.slots_per_day != self.slots_per_day:
                raise FleetIncompatibleError(
                    "all fleet households must share one profile resolution"
                )
            token = token_by_id.get(id(household.library))
            if token is None:
                token = self._library_token(household.library)
                token_by_id[id(household.library)] = token
            key = (token, tuple(household.profile.ownership.keys()))
            groups.setdefault(key, []).append(row)
        #: ``(population-row indices, sub-fleet)`` pairs, one per signature,
        #: in first-appearance order.
        self.buckets: list[tuple[np.ndarray, HouseholdFleet]] = [
            (
                np.array(rows, dtype=np.intp),
                HouseholdFleet(
                    [self.households[row] for row in rows], appliance_order=key[1]
                ),
            )
            for key, rows in groups.items()
        ]
        self.household_ids = [h.household_id for h in self.households]
        self.sizes = np.array([float(h.size) for h in self.households])
        self.comfort_weights = np.array(
            [h.profile.comfort_weight for h in self.households]
        )
        self.flexibility_scales = np.array(
            [h.profile.flexibility_scale for h in self.households]
        )
        self._demand_cache: dict[float, np.ndarray] = {}

    def _library_token(self, library) -> int:
        for token, known in enumerate(self._libraries):
            if library is known or library.all() == known.all():
                return token
        self._libraries.append(library)
        return len(self._libraries) - 1

    # -- basic views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.households)

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    heating_factor = staticmethod(HouseholdFleet.heating_factor)

    # -- kernels -----------------------------------------------------------------

    def _scatter(self, kernel_name: str, *args, **kwargs) -> np.ndarray:
        """Run a per-bucket ``(n,)`` kernel and scatter rows into place."""
        out = np.zeros(len(self.households))
        for rows, bucket in self.buckets:
            out[rows] = getattr(bucket, kernel_name)(*args, **kwargs)
        return out

    def demand_profiles(self, weather: Optional[WeatherSample] = None) -> np.ndarray:
        """``(N, S)`` demand matrix in population order (rows bit-identical
        to each household's scalar ``demand_profile``)."""
        factor = self.heating_factor(weather)
        cached = self._demand_cache.get(factor)
        if cached is not None:
            return cached
        total = np.zeros((len(self.households), self.slots_per_day))
        for rows, bucket in self.buckets:
            total[rows] = bucket.demand_profiles(weather)
        total.setflags(write=False)
        if len(self._demand_cache) >= _WEATHER_CACHE_SIZE:
            self._demand_cache.pop(next(iter(self._demand_cache)))
        self._demand_cache[factor] = total
        return total

    def aggregate_demand(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        return LoadProfile.from_array(self.demand_profiles(weather).sum(axis=0))

    def energy_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("energy_in", interval, weather)

    def average_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("average_in", interval, weather)

    def saveable_energy(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        return self._scatter("saveable_energy", interval, weather)

    def max_cutdown_fractions(
        self,
        interval: TimeInterval,
        weather: Optional[WeatherSample] = None,
        demand_energies: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        out = np.zeros(len(self.households))
        for rows, bucket in self.buckets:
            sliced = demand_energies[rows] if demand_energies is not None else None
            out[rows] = bucket.max_cutdown_fractions(
                interval, weather, demand_energies=sliced
            )
        return out


#: Either columnar layout — what :func:`pack_fleet` returns.  The two share
#: the full planning-kernel surface and are interchangeable for callers.
Fleet = Union[HouseholdFleet, BucketedFleet]


def pack_fleet(households: Sequence[Household]) -> Fleet:
    """Pack ``households`` into the best columnar layout that fits.

    The single-matrix :class:`HouseholdFleet` when the population is
    appliance-homogeneous (no bucketing overhead), otherwise a
    :class:`BucketedFleet`.  Raises :class:`FleetIncompatibleError` only for
    genuinely unpackable populations (mixed profile resolutions) and a plain
    :class:`ValueError` for empty input.
    """
    try:
        return HouseholdFleet(households)
    except FleetIncompatibleError:
        return BucketedFleet(households)
