"""Generating Customer Agent populations.

Experiments need populations of customers at two levels of fidelity:

* **synthetic households** — full grid-substrate households (appliances,
  weather-dependent demand, preference models derived from comfort weights),
  used by the Figure-1 demand curve, the method comparison and the
  scalability experiments; and
* **calibrated customers** — customers with explicitly given predicted use,
  allowed use and requirement tables, used to reproduce the exact prototype
  scenario of Figures 6-9.

:class:`CustomerPopulation` holds either kind and produces the
:class:`~repro.negotiation.methods.base.CustomerContext` objects, Customer
Agents and the Utility Agent's :class:`UtilityContext` for a negotiation
about a given peak interval.

**Lazy materialisation.**  Populations assembled by the columnar planner
(:meth:`CustomerPopulation.from_fleet`) can defer building the per-customer
:class:`CustomerSpec` objects and their dict reward tables entirely
(``materialise="lazy"``): the population then carries the planning arrays —
ids, predicted uses and the :class:`~repro.agents.preferences
.FleetRequirements` matrix — and :meth:`CustomerPopulation.columnar_view`
hands them straight to :class:`~repro.agents.vectorized.VectorizedPopulation`,
so a 100k-household campaign day never allocates 100k spec objects or
100k requirement dicts.  Anything that genuinely needs the object view
(``.specs``, the object backend, resource consumers) triggers
materialisation transparently, and the materialised objects are bit-identical
to an ``materialise="eager"`` population — the eager path stays the
equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.agents.customer_agent import CustomerAgent
from repro.agents.preferences import CustomerPreferenceModel, FleetRequirements
from repro.agents.resource_consumer_agent import ResourceConsumerAgent
from repro.core.modes import (
    DEFAULT_MATERIALISE_MODE,
    validate_materialise_mode,
    validate_planning_mode,
)
from repro.grid.appliances import ApplianceLibrary, standard_appliance_library
from repro.grid.demand import DemandModel
from repro.grid.fleet import Fleet, FleetIncompatibleError, pack_fleet
from repro.grid.household import Household
from repro.grid.weather import WeatherSample
from repro.negotiation.methods.base import (
    CustomerColumn,
    CustomerContext,
    NegotiationMethod,
    UtilityContext,
)
from repro.negotiation.reward_table import CutdownRewardRequirements
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource


@dataclass
class PopulationConfig:
    """Configuration for a synthetic household population."""

    num_households: int = 50
    seed: int = 0
    slots_per_day: int = 24
    behavioural_noise: float = 0.08
    preference_scale: float = 2.0
    preference_exponent: float = 1.8

    def __post_init__(self) -> None:
        if self.num_households <= 0:
            raise ValueError("population needs at least one household")
        if self.behavioural_noise < 0:
            raise ValueError("behavioural noise must be non-negative")


@dataclass
class CustomerSpec:
    """One customer of a population, ready to be turned into an agent."""

    customer_id: str
    predicted_use: float
    allowed_use: float
    requirements: CutdownRewardRequirements
    household: Optional[Household] = None

    def context(self) -> CustomerContext:
        return CustomerContext(
            customer=self.customer_id,
            predicted_use=self.predicted_use,
            allowed_use=self.allowed_use,
            requirements=self.requirements,
        )


@dataclass(frozen=True)
class PopulationColumns:
    """The columnar planning → negotiation hand-off of a lazy population.

    Exactly what :class:`~repro.agents.vectorized.VectorizedPopulation` needs
    to pack itself without touching per-customer objects: ids and uses in
    population order plus the shared-grid :class:`~repro.agents.preferences
    .FleetRequirements` matrix.
    """

    customer_ids: list[str]
    predicted_uses: list[float]
    allowed_uses: list[float]
    requirements: FleetRequirements


class CustomerPopulation:
    """A set of customers plus the utility-side view of them."""

    def __init__(
        self,
        specs: Sequence[CustomerSpec],
        normal_use: float,
        interval: Optional[TimeInterval] = None,
        max_allowed_overuse: float = 0.0,
        households: Optional[Sequence[Household]] = None,
        weather: Optional[WeatherSample] = None,
    ) -> None:
        if not specs:
            raise ValueError("a population needs at least one customer")
        self._specs: Optional[list[CustomerSpec]] = list(specs)
        self._columns: Optional[PopulationColumns] = None
        self._init_common(
            normal_use, interval, max_allowed_overuse, households, weather
        )

    def _init_common(
        self,
        normal_use: float,
        interval: Optional[TimeInterval],
        max_allowed_overuse: float,
        households: Optional[Sequence[Household]],
        weather: Optional[WeatherSample],
    ) -> None:
        if normal_use <= 0:
            raise ValueError("normal use must be positive")
        self.normal_use = float(normal_use)
        self.interval = interval
        self.max_allowed_overuse = float(max_allowed_overuse)
        self.households = list(households or [])
        self.weather = weather
        #: The columnar fleet the population was planned from, when it came
        #: out of a fleet-backed constructor; lets downstream consumers (the
        #: load-balancing system's accounting) reuse the packed arrays.
        self.fleet: Optional[Fleet] = None
        #: Why a ``planning="columnar"`` constructor fell back to the scalar
        #: per-household path (``None`` when the fleet packed or the scalar
        #: path was asked for).  Surfaced by the engine facade as
        #: ``metadata["planning_fallback"]``.
        self.planning_fallback: Optional[str] = None

    # -- materialisation -----------------------------------------------------------

    @property
    def specs(self) -> list[CustomerSpec]:
        """The per-customer spec objects (materialised on first access)."""
        if self._specs is None:
            self._specs = self._materialise_specs()
        return self._specs

    @property
    def materialised(self) -> bool:
        """Whether the per-customer spec objects exist (always for eager)."""
        return self._specs is not None

    def _materialise_specs(self) -> list[CustomerSpec]:
        """Build the spec objects a lazy population deferred (bit-identical
        to the ones an eager :meth:`from_fleet` would have built)."""
        columns = self._columns
        tables = columns.requirements.tables()
        return [
            CustomerSpec(
                customer_id=customer_id,
                predicted_use=use,
                allowed_use=allowed,
                requirements=table,
                household=household,
            )
            for customer_id, use, allowed, table, household in zip(
                columns.customer_ids,
                columns.predicted_uses,
                columns.allowed_uses,
                tables,
                self.households,
            )
        ]

    def columnar_view(self) -> Optional[PopulationColumns]:
        """The planning arrays of a lazy population, or ``None``.

        Consumers that can run straight off the arrays (the vectorized /
        sharded negotiation backends) use this to bypass the object view; a
        ``None`` means the population is spec-backed and they should read
        :attr:`specs` as before.
        """
        return self._columns if self._specs is None else None

    # -- basic views ---------------------------------------------------------------

    def __len__(self) -> int:
        if self._specs is None:
            return len(self._columns.customer_ids)
        return len(self._specs)

    @property
    def customer_ids(self) -> list[str]:
        if self._specs is None:
            return list(self._columns.customer_ids)
        return [spec.customer_id for spec in self._specs]

    @property
    def total_predicted_use(self) -> float:
        # Both branches sum the identical Python floats left to right, so the
        # lazy and eager views agree bit for bit.
        if self._specs is None:
            return sum(self._columns.predicted_uses)
        return sum(spec.predicted_use for spec in self._specs)

    @property
    def initial_overuse(self) -> float:
        return self.total_predicted_use - self.normal_use

    def spec(self, customer_id: str) -> CustomerSpec:
        for spec in self.specs:
            if spec.customer_id == customer_id:
                return spec
        raise KeyError(f"no customer {customer_id!r} in population")

    # -- agent construction ------------------------------------------------------------

    def utility_context(self) -> UtilityContext:
        """The Utility Agent's view of this population.

        A lazy population hands over read-only :class:`~repro.negotiation
        .methods.base.CustomerColumn` views over its one id list and its use
        columns, so no per-customer map is built unless a reader looks a
        customer up (the array rounds never do); an eager one builds dicts.
        """
        if self._specs is None:
            columns = self._columns
            predicted = CustomerColumn(columns.customer_ids, columns.predicted_uses)
            allowed = CustomerColumn(columns.customer_ids, columns.allowed_uses)
        else:
            predicted = {s.customer_id: s.predicted_use for s in self._specs}
            allowed = {s.customer_id: s.allowed_use for s in self._specs}
        return UtilityContext(
            normal_use=self.normal_use,
            predicted_uses=predicted,
            allowed_uses=allowed,
            interval=self.interval,
            max_allowed_overuse=self.max_allowed_overuse,
        )

    def customer_contexts(self) -> list[CustomerContext]:
        return [spec.context() for spec in self.specs]

    def build_customer_agents(
        self,
        method: NegotiationMethod,
        with_resource_consumers: bool = False,
    ) -> list[CustomerAgent]:
        """Customer Agents (optionally with Resource Consumer Agents attached)."""
        agents = []
        for spec in self.specs:
            resource_consumers: list[ResourceConsumerAgent] = []
            if with_resource_consumers and spec.household is not None:
                owner = f"customer_agent_{spec.customer_id}"
                for appliance, scale in spec.household.owned_appliances():
                    resource_consumers.append(
                        ResourceConsumerAgent(
                            household=spec.household,
                            appliance=appliance,
                            usage_scale=scale,
                            owner_agent=owner,
                            weather=self.weather,
                        )
                    )
            agents.append(
                CustomerAgent(
                    context=spec.context(),
                    method=method,
                    resource_consumers=resource_consumers,
                )
            )
        return agents

    # -- constructors ----------------------------------------------------------------------

    @classmethod
    def from_fleet(
        cls,
        fleet: Fleet,
        predicted_uses: Union[Sequence[float], np.ndarray],
        requirements: FleetRequirements,
        normal_use: float,
        interval: Optional[TimeInterval] = None,
        max_allowed_overuse: float = 0.0,
        weather: Optional[WeatherSample] = None,
        materialise: str = DEFAULT_MATERIALISE_MODE,
    ) -> "CustomerPopulation":
        """A population assembled from columnar planning arrays.

        The compute-heavy planning quantities (predicted uses, requirement
        tables) arrive as arrays straight from the fleet kernels.  With
        ``materialise="lazy"`` (the default) the population keeps only the
        arrays and defers the spec objects until something actually reads
        :attr:`specs` — the batched negotiation backends never do; with
        ``materialise="eager"`` (the equivalence oracle) the per-customer
        spec objects the object-path sessions consume are built immediately.
        Either way the population is bit-identical to one built through the
        scalar per-household loop.
        """
        validate_materialise_mode(materialise)
        if len(fleet) != len(predicted_uses) or len(fleet) != len(requirements):
            raise ValueError("fleet, predicted uses and requirements must align")
        predicted = np.asarray(predicted_uses, dtype=float).tolist()
        if materialise == "lazy":
            population = cls.__new__(cls)
            population._specs = None
            population._columns = PopulationColumns(
                customer_ids=list(fleet.household_ids),
                predicted_uses=predicted,
                allowed_uses=predicted,
                requirements=requirements,
            )
            population._init_common(
                normal_use, interval, max_allowed_overuse, fleet.households, weather
            )
            population.fleet = fleet
            return population
        tables = requirements.tables()
        specs = [
            CustomerSpec(
                customer_id=customer_id,
                predicted_use=use,
                allowed_use=use,
                requirements=table,
                household=household,
            )
            for customer_id, use, table, household in zip(
                fleet.household_ids, predicted, tables, fleet.households
            )
        ]
        population = cls(
            specs=specs,
            normal_use=normal_use,
            interval=interval,
            max_allowed_overuse=max_allowed_overuse,
            households=fleet.households,
            weather=weather,
        )
        population.fleet = fleet
        return population

    @classmethod
    def synthetic(
        cls,
        config: PopulationConfig,
        interval: Optional[TimeInterval] = None,
        weather: Optional[WeatherSample] = None,
        library: Optional[ApplianceLibrary] = None,
        capacity_quantile: float = 0.75,
        max_allowed_overuse_fraction: float = 0.02,
        planning: str = "columnar",
        materialise: str = DEFAULT_MATERIALISE_MODE,
    ) -> "CustomerPopulation":
        """A synthetic household population with grid-substrate demand.

        The per-customer predicted use is the household's average demand in
        the peak interval; the allowed use equals the predicted use (the
        cut-down is relative to what the customer was going to consume); the
        normal capacity is set from the demand distribution so that a peak
        exists.

        ``planning`` selects how the per-customer quantities are computed:
        ``"columnar"`` (default) runs the fleet kernels, ``"scalar"`` the
        per-household object loop.  The two are bit-identical — the scalar
        path survives as the equivalence oracle and as the fallback for
        fleet-incompatible household sets.  ``materialise="lazy"`` (the
        default; columnar path only) defers the per-customer spec objects;
        ``"eager"`` builds them up front, and the scalar path always
        materialises.
        """
        validate_planning_mode(planning)
        validate_materialise_mode(materialise)
        random = RandomSource(config.seed, name="population")
        if library is None:
            library = standard_appliance_library()
        elif not len(library):
            raise ValueError("a synthetic population needs a non-empty appliance library")
        households = [
            Household.generate(f"h{i:04d}", random.spawn(f"household_{i}"), library,
                               config.slots_per_day)
            for i in range(config.num_households)
        ]
        fleet: Optional[Fleet] = None
        planning_fallback: Optional[str] = None
        if planning == "columnar":
            try:
                fleet = pack_fleet(households)
            except FleetIncompatibleError as exc:
                fleet = None
                planning_fallback = str(exc)
        demand_model = DemandModel(
            households, random.spawn("demand"), config.behavioural_noise, fleet=fleet
        )
        aggregate = demand_model.expected_aggregate(weather)
        normal_use = demand_model.normal_capacity_for_target(weather, quantile=capacity_quantile)
        if interval is None:
            interval = aggregate.peak_interval(normal_use)
            if interval is None:
                interval = TimeInterval.from_hours(17, 20, config.slots_per_day)
        preference_random = random.spawn("preferences")
        base_weights = [
            CustomerPreferenceModel.sample(
                preference_random.spawn(household.household_id)
            ).comfort_weight
            for household in households
        ]
        max_allowed_overuse = max_allowed_overuse_fraction * normal_use
        if fleet is not None:
            model = CustomerPreferenceModel(
                discomfort_scale=config.preference_scale,
                exponent=config.preference_exponent,
            )
            requirements = model.requirements_for_fleet(
                fleet, interval, weather, comfort_weights=base_weights
            )
            return cls.from_fleet(
                fleet=fleet,
                predicted_uses=fleet.average_in(interval, weather),
                requirements=requirements,
                normal_use=normal_use,
                interval=interval,
                max_allowed_overuse=max_allowed_overuse,
                weather=weather,
                materialise=materialise,
            )
        specs = []
        for household, base_weight in zip(households, base_weights):
            demand = household.demand_profile(weather)
            predicted = demand.average_in(interval)
            model = CustomerPreferenceModel(
                comfort_weight=base_weight,
                discomfort_scale=config.preference_scale,
                exponent=config.preference_exponent,
            )
            requirements = model.requirements_for_household(household, interval, weather)
            specs.append(
                CustomerSpec(
                    customer_id=household.household_id,
                    predicted_use=predicted,
                    allowed_use=predicted,
                    requirements=requirements,
                    household=household,
                )
            )
        population = cls(
            specs=specs,
            normal_use=normal_use,
            interval=interval,
            max_allowed_overuse=max_allowed_overuse,
            households=households,
            weather=weather,
        )
        population.planning_fallback = planning_fallback
        return population

    @classmethod
    def calibrated(
        cls,
        predicted_uses: Sequence[float],
        requirements: Sequence[CutdownRewardRequirements],
        normal_use: float,
        allowed_uses: Optional[Sequence[float]] = None,
        interval: Optional[TimeInterval] = None,
        max_allowed_overuse: float = 0.0,
    ) -> "CustomerPopulation":
        """A population defined by explicit numbers (for prototype calibration)."""
        if len(predicted_uses) != len(requirements):
            raise ValueError("predicted_uses and requirements must have the same length")
        allowed = list(allowed_uses) if allowed_uses is not None else list(predicted_uses)
        if len(allowed) != len(predicted_uses):
            raise ValueError("allowed_uses must match predicted_uses in length")
        specs = [
            CustomerSpec(
                customer_id=f"c{i:03d}",
                predicted_use=float(predicted),
                allowed_use=float(allowed_use),
                requirements=requirement,
            )
            for i, (predicted, allowed_use, requirement) in enumerate(
                zip(predicted_uses, allowed, requirements)
            )
        ]
        return cls(
            specs=specs,
            normal_use=normal_use,
            interval=interval,
            max_allowed_overuse=max_allowed_overuse,
        )
