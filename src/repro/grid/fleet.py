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

**One pass per weather.**  All four rest on one streamed pass over the
appliances: each appliance's slot powers for every household are computed
into one reused scratch buffer and, while they are there, added to the
demand matrix and reduced to the household's saveable energy in the planning
interval.  The
demand matrix is cached per heating factor, so a planning day costs one pass
for its weather; only when the weather's demand is already cached (a repeated
heating factor) does saveable energy stream again, and then over the
interval's slots alone.

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


def _interval_block(interval: TimeInterval, slots_per_day: int) -> slice:
    """The interval's slots as one contiguous slice of slot indices."""
    if interval.slots_per_day != slots_per_day:
        raise ValueError(
            f"interval resolution {interval.slots_per_day} does not match "
            f"fleet resolution {slots_per_day}"
        )
    return slice(interval.start.index, interval.end.index + 1)


def _interval_energy(slots: np.ndarray, slot_hours: float) -> np.ndarray:
    """Per-household energy of a slot-major ``(k, N)`` block of slot powers.

    :meth:`LoadProfile.energy_in` sums the interval's slots left to right and
    then multiplies by the slot length; so does this, one slot row at a time.
    """
    total = np.zeros(slots.shape[1])
    for row in slots:
        total += row
    return total * slot_hours


class _FleetKernels:
    """The planning kernels both fleet layouts share.

    Everything rides one primitive, ``_pass(weather, block)``: the weather's
    ``(N, S)`` demand matrix (cached per heating factor) and, when ``block``
    names an interval's slots, the households' saveable energy in it — both
    out of *one* streamed pass over the appliances when the demand is not
    cached yet.  Subclasses supply ``_stream``, the pass itself.
    """

    households: list[Household]
    slots_per_day: int
    _demand_cache: dict[float, np.ndarray]

    def __len__(self) -> int:
        return len(self.households)

    @staticmethod
    def heating_factor(weather: Optional[WeatherSample]) -> float:
        return weather.heating_factor if weather is not None else 1.0

    def _stream(
        self, weather: Optional[WeatherSample], block: Optional[slice],
        demand: Optional[np.ndarray],
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Build ``demand`` when it is ``None``, and ``block``'s saveable energy."""
        raise NotImplementedError

    def _pass(
        self, weather: Optional[WeatherSample], block: Optional[slice] = None
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        factor = self.heating_factor(weather)
        cached = self._demand_cache.get(factor)
        if cached is not None and block is None:
            return cached, None
        demand, saveable = self._stream(weather, block, cached)
        if cached is None:
            demand.setflags(write=False)
            if len(self._demand_cache) >= _WEATHER_CACHE_SIZE:
                self._demand_cache.pop(next(iter(self._demand_cache)))
            self._demand_cache[factor] = demand
        return demand, saveable

    def demand_profiles(self, weather: Optional[WeatherSample] = None) -> np.ndarray:
        """``(N, S)`` read-only matrix of per-household daily demand (kW per slot).

        Row ``i`` is bit-identical to
        ``households[i].demand_profile(weather).as_array()``.
        """
        return self._pass(weather)[0]

    def demand_and_saveable(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The demand matrix and the ``(N,)`` saveable energy (kWh) in ``interval``.

        One streamed pass over the appliances yields both when the weather's
        demand is not cached yet; with the demand cached, only the interval's
        slots are streamed.  Either way the results are bit-identical to
        :meth:`demand_profiles` and the scalar :meth:`Household.saveable_energy`.
        """
        return self._pass(weather, _interval_block(interval, self.slots_per_day))

    def aggregate_demand(self, weather: Optional[WeatherSample] = None) -> LoadProfile:
        """Population aggregate profile; equals summing the per-household profiles."""
        return LoadProfile.from_array(self.demand_profiles(weather).sum(axis=0))

    def energy_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household energy (kWh) used during the interval (``(N,)``)."""
        block = _interval_block(interval, self.slots_per_day)
        return _interval_energy(
            self.demand_profiles(weather)[:, block].T, 24.0 / self.slots_per_day
        )

    def average_in(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Per-household average demand (kW) during the interval (``(N,)``)."""
        _interval_block(interval, self.slots_per_day)  # resolution check
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
        return self.demand_and_saveable(interval, weather)[1]

    def max_cutdown_fractions(
        self, interval: TimeInterval, weather: Optional[WeatherSample] = None
    ) -> np.ndarray:
        """Largest physically implementable cut-down fraction per household."""
        matrix, saveable = self.demand_and_saveable(interval, weather)
        block = _interval_block(interval, self.slots_per_day)
        demand = _interval_energy(matrix[:, block].T, 24.0 / self.slots_per_day)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.minimum(1.0, saveable / demand)
        return np.where(demand > 0, fractions, 0.0)


class HouseholdFleet(_FleetKernels):
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
            ownership = household.profile.ownership
            if list(ownership) == names:
                # Keyed exactly by the columns, in column order (every
                # generated household): the values are the row.
                ownership_rows.append(list(ownership.values()))
                continue
            # The scalar path aggregates appliances in ownership-dict order;
            # the fleet aggregates in column order.  Bit-identity therefore
            # requires the owned appliances to appear in column order (the
            # library's by default, or the caller's ``appliance_order``
            # permutation — how BucketedFleet packs households whose
            # ownership dicts are not library-ordered).
            try:
                owned_columns = [
                    index_of[name]
                    for name, scale in ownership.items()
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
            ownership_rows.append([ownership.get(name, 0.0) for name in names])
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

    @property
    def num_appliances(self) -> int:
        return len(self._appliances)

    # -- kernels -----------------------------------------------------------------

    def _appliance_powers(self, heating_factor: float, block: Optional[slice] = None):
        """Per-appliance slot powers, mirroring ``daily_profile``.

        A generator yielding ``(column, power)`` with ``power`` the appliance's
        slot-major ``(S, N)`` power matrix — or, given ``block``, only those
        slots' rows (every slot's power is computed independently, so a block
        carries the same bits as the full matrix's rows).  Slot-major keeps
        every broadcast's inner loop running over the households.  The
        yielded array is one scratch buffer refilled in place for each
        appliance: consume it before advancing.  The full ``A`` matrices at
        once would cost hundreds of MB for a 100k-household fleet, which is
        why they are streamed rather than cached.
        """
        slot_hours = 24.0 / self.slots_per_day
        weights = self._slot_weights if block is None else self._slot_weights[:, block]
        power = np.empty((weights.shape[1], len(self.households)))
        for column in range(self.num_appliances):
            # Same multiplication order as Appliance.daily_profile: base
            # energy x ownership scale, then x household size (per-person
            # appliances), then x heating factor (heating categories).
            energy = self._daily_energies[column] * self.ownership[:, column]
            if self._per_person[column]:
                energy = energy * self.sizes
            if self._heating[column]:
                energy = energy * heating_factor
            np.multiply(weights[column][:, None], energy[None, :], out=power)
            np.divide(power, slot_hours, out=power)
            np.minimum(power, self._caps[column][None, :], out=power)
            yield column, power

    def _stream(
        self, weather: Optional[WeatherSample], block: Optional[slice],
        demand: Optional[np.ndarray],
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        factor = self.heating_factor(weather)
        slot_hours = 24.0 / self.slots_per_day
        saveable = None if block is None else np.zeros(len(self.households))
        fresh = demand is None
        if fresh:
            by_slot = np.zeros((self.slots_per_day, len(self.households)))
        # With the demand cached, only the interval's slots are streamed.
        for column, power in self._appliance_powers(factor, None if fresh else block):
            if fresh:
                # Sequential accumulation in library order matches the scalar
                # LoadProfile.aggregate over owned appliances (adding an
                # unowned appliance's exact 0.0 contribution preserves every
                # bit).
                by_slot += power
            if saveable is not None:
                energy = _interval_energy(power[block] if fresh else power, slot_hours)
                saveable += (energy * self._flexibilities[column]) * self.flexibility_scales
        if fresh:
            demand = np.ascontiguousarray(by_slot.T)
        return demand, saveable


class BucketedFleet(_FleetKernels):
    """A heterogeneous population packed as per-signature sub-fleets.

    Households are grouped by appliance signature — their library (compared
    by value, like :class:`HouseholdFleet`) and the column order of their
    ownership dict — and each bucket becomes one :class:`HouseholdFleet`
    whose columns follow that bucket's ownership-dict order.  Because every
    household's *owned* appliances are a subsequence of its ownership-dict
    keys, the per-bucket column permutation always satisfies the fleet's
    order check, and each kernel row keeps the scalar path's accumulation
    order: bucketed results are bit-identical to the per-household loop.

    Each bucket's streamed pass is scattered back into population order —
    demand matrix and saveable energy alike — and the interval kernels run on
    those population-order arrays, so the class exposes the same surface as
    :class:`HouseholdFleet` (``demand_profiles``, ``demand_and_saveable``,
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

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    # -- kernels -----------------------------------------------------------------

    def _stream(
        self, weather: Optional[WeatherSample], block: Optional[slice],
        demand: Optional[np.ndarray],
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Run each bucket's pass and scatter both outputs into population order."""
        fresh = demand is None
        if fresh:
            demand = np.zeros((len(self.households), self.slots_per_day))
        saveable = None if block is None else np.zeros(len(self.households))
        for rows, bucket in self.buckets:
            bucket_demand, bucket_saveable = bucket._pass(weather, block)
            if fresh:
                demand[rows] = bucket_demand
            if saveable is not None:
                saveable[rows] = bucket_saveable
        return demand, saveable


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
