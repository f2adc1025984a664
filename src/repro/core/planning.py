"""Day-ahead planning and multi-day load-management campaigns.

The paper's Utility Agent does not negotiate in a vacuum: it observes
consumption, maintains statistical models, predicts tomorrow's balance and
*then* decides whether to negotiate (Section 5.1).  This module closes that
loop on top of the substrates:

* :class:`DayAheadPlanner` — owns a household population, a
  :class:`~repro.grid.prediction.ConsumptionPredictor` trained on realised
  demand, and the preference models; given a weather forecast it builds the
  :class:`~repro.core.scenario.Scenario` for tomorrow's expected peak.
* :class:`MultiDayCampaign` — runs the full observe → predict → negotiate →
  apply → account loop over a sequence of days, retraining the predictor as
  realised demand comes in.  This is the "dynamic load management of the
  power grid" the introduction of the paper motivates, and it exercises the
  prediction, negotiation and accounting layers together.

The planning path is *columnar* end to end: the planner packs its households
into a :class:`~repro.grid.fleet.HouseholdFleet` and, per planned day, runs
one array-native prediction plus one broadcasted requirement-matrix build
(:meth:`~repro.agents.preferences.CustomerPreferenceModel
.requirements_for_fleet`) instead of a per-household Python loop — the same
day's plan, bit for bit, at a fraction of the wall-clock.  The scalar
per-household path survives as ``planning="scalar"``: the equivalence oracle
and the fallback for fleet-incompatible household sets.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.agents.population import CustomerPopulation, CustomerSpec
from repro.agents.preferences import CustomerPreferenceModel
from repro.core.checkpoint import CHECKPOINT_VERSION, CampaignCheckpoint
from repro.core.modes import (
    DEFAULT_MATERIALISE_MODE,
    MATERIALISE_MODES,
    PLANNING_MODES,
    validate_history_window,
    validate_materialise_mode,
    validate_planning_mode,
)
from repro.core.results import SystemResult
from repro.core.scenario import Scenario
from repro.core.system import LoadBalancingSystem
from repro.grid.demand import DemandModel
from repro.grid.fleet import Fleet, FleetIncompatibleError, pack_fleet
from repro.grid.household import Household
from repro.grid.prediction import ConsumptionPredictor, FleetPrediction, PredictionModel
from repro.grid.production import ProductionModel
from repro.grid.weather import WeatherCondition, WeatherModel, WeatherSample
from repro.negotiation.methods.base import NegotiationMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.strategy import ConstantBeta
from repro.runtime.clock import TimeInterval
from repro.runtime.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - typing only (import would cycle via repro.api)
    from repro.api.config import EngineConfig

# Re-exported for backwards compatibility; canonical home is repro.core.modes.
__all__ = [
    "PLANNING_MODES", "MATERIALISE_MODES",
    "DayAheadPlanner", "MultiDayCampaign", "CampaignDay", "CampaignResult",
]


class DayAheadPlanner:
    """Builds tomorrow's negotiation scenario from history and a forecast.

    Parameters
    ----------
    households:
        The customer base.
    normal_capacity_kw:
        Capacity servable at normal production cost.
    predictor:
        Consumption predictor (weather-adjusted by default); it must be
        trained via :meth:`observe_day` before :meth:`plan` can run.
    preference_model:
        Base preference model used to derive each household's
        cut-down-reward requirements for the predicted peak interval.
    method_factory:
        Callable building a fresh negotiation method per planned day (a
        method object carries per-negotiation state such as β controllers).
    planning:
        Default planning path: ``"columnar"`` (fleet kernels, the default) or
        ``"scalar"`` (per-household loop, the equivalence oracle).  Both
        produce bit-identical scenarios; fleet-incompatible household sets
        fall back to scalar automatically.
    materialise:
        Default planning → negotiation hand-off: ``"lazy"`` (the default;
        columnar arrays only, nothing materialised per household) or
        ``"eager"`` (per-household spec objects, the equivalence oracle).
        Both run bit-identical campaigns; lazy applies on the columnar path.
    history_window:
        Observation window (days) for the *default* predictor: ``None``
        keeps the full history, a positive value bounds predictor memory to
        O(window · N · slots) via a ring buffer.  When an explicit
        ``predictor`` is passed its own window governs and this must stay
        ``None``.
    """

    def __init__(
        self,
        households: Sequence[Household],
        normal_capacity_kw: float,
        predictor: Optional[ConsumptionPredictor] = None,
        preference_model: Optional[CustomerPreferenceModel] = None,
        max_reward: float = 60.0,
        beta: float = 2.0,
        max_allowed_overuse_fraction: float = 0.02,
        random: Optional[RandomSource] = None,
        planning: str = "columnar",
        materialise: str = DEFAULT_MATERIALISE_MODE,
        history_window: Optional[int] = None,
    ) -> None:
        if not households:
            raise ValueError("the planner needs at least one household")
        if normal_capacity_kw <= 0:
            raise ValueError("normal capacity must be positive")
        if not 0.0 <= max_allowed_overuse_fraction < 1.0:
            raise ValueError("max allowed overuse fraction must be in [0, 1)")
        validate_planning_mode(planning)
        validate_materialise_mode(materialise)
        validate_history_window(history_window)
        if predictor is not None and history_window is not None:
            raise ValueError(
                "pass history_window to the predictor itself when supplying "
                "an explicit predictor"
            )
        self.households = list(households)
        self.normal_capacity_kw = float(normal_capacity_kw)
        self.predictor = predictor or ConsumptionPredictor(
            PredictionModel.WEATHER_ADJUSTED, history_window=history_window
        )
        self.preference_model = preference_model or CustomerPreferenceModel()
        self.max_reward = float(max_reward)
        self.beta = float(beta)
        self.max_allowed_overuse_fraction = float(max_allowed_overuse_fraction)
        self.planning = planning
        self.materialise = materialise
        self._random = random if random is not None else RandomSource(0, "planner")
        #: Why the planner fell off the columnar path, or ``None`` when the
        #: fleet packed (``pack_fleet`` buckets heterogeneous populations, so
        #: in practice only mixed profile resolutions end up here).  Campaign
        #: day metadata surfaces this as ``planning_fallback``.
        self.planning_fallback: Optional[str] = None
        try:
            self.fleet: Optional[Fleet] = pack_fleet(self.households)
        except FleetIncompatibleError as exc:
            self.fleet = None
            self.planning_fallback = str(exc)
        self._demand_model = DemandModel(
            self.households, self._random.spawn("demand"), behavioural_noise=0.05,
            fleet=self.fleet,
        )
        #: Memoised last prediction, keyed by (forecast, history length):
        #: ``predicted_peak_interval`` and ``plan`` share one predictor run.
        self._prediction_cache: Optional[tuple[WeatherSample, int, FleetPrediction]] = None

    # -- observation --------------------------------------------------------------

    def observe_day(self, weather: WeatherSample) -> None:
        """Realise one day of demand under ``weather`` and feed it to the predictor."""
        self.observe_days([weather])

    def observe_days(self, weathers: Sequence[WeatherSample]) -> None:
        """Realise several days and feed them to the predictor in one batch."""
        self.predictor.observe_many(
            [self._demand_model.realise(weather) for weather in weathers]
        )

    @property
    def history_length(self) -> int:
        return self.predictor.history_length

    def set_history_window(self, history_window: Optional[int]) -> None:
        """Re-bound the predictor's observation window (campaign runs use this).

        Shrinking drops the oldest days in place — the memoised prediction is
        invalidated so the next plan sees exactly the windowed history.
        Raises a clear error for custom predictors without window support.
        """
        validate_history_window(history_window)
        rebound = getattr(self.predictor, "set_history_window", None)
        if rebound is None:
            raise ValueError(
                f"predictor {type(self.predictor).__name__} does not support "
                f"history windows; leave EngineConfig.history_window unset or "
                f"use a ConsumptionPredictor"
            )
        rebound(history_window)
        self._prediction_cache = None

    # -- planning -------------------------------------------------------------------

    def _predict(self, forecast: WeatherSample) -> FleetPrediction:
        """One predictor run per (forecast, history) pair, memoised.

        Keyed on the *total* observed-day count, which keeps growing even
        once a windowed predictor's retained length plateaus at the window —
        every new observation must invalidate the memo.
        """
        cached = self._prediction_cache
        history = getattr(
            self.predictor, "observed_days", self.predictor.history_length
        )
        if cached is not None and cached[0] == forecast and cached[1] == history:
            return cached[2]
        prediction = self.predictor.predict_columnar(forecast)
        self._prediction_cache = (forecast, history, prediction)
        return prediction

    def predicted_peak_interval(self, forecast: WeatherSample) -> Optional[TimeInterval]:
        """The contiguous interval in which predicted demand exceeds capacity."""
        return self._predict(forecast).aggregate.peak_interval(self.normal_capacity_kw)

    def plan(
        self,
        forecast: WeatherSample,
        method: Optional[NegotiationMethod] = None,
        planning: Optional[str] = None,
        materialise: Optional[str] = None,
    ) -> Optional[Scenario]:
        """Build tomorrow's scenario, or ``None`` when no peak is predicted.

        ``planning`` and ``materialise`` override the planner's defaults for
        this call; every mode combination builds bit-identical scenarios
        (``materialise="lazy"`` merely defers the per-household objects, and
        only applies on the columnar path — the scalar oracle always
        materialises).
        """
        mode = validate_planning_mode(
            planning if planning is not None else self.planning
        )
        hand_off = validate_materialise_mode(
            materialise if materialise is not None else self.materialise
        )
        prediction = self._predict(forecast)
        interval = prediction.aggregate.peak_interval(self.normal_capacity_kw)
        if interval is None:
            return None
        if mode == "columnar" and self.fleet is not None:
            population = self._columnar_population(
                prediction, interval, forecast, materialise=hand_off
            )
        else:
            population = self._scalar_population(prediction, interval, forecast)
        if method is None:
            method = RewardTablesMethod(
                max_reward=self.max_reward,
                beta_controller=ConstantBeta(self.beta),
                reward_epsilon=0.005 * self.max_reward,
            )
        return Scenario(
            name="day_ahead_plan",
            population=population,
            method=method,
            description="Day-ahead scenario built from the consumption predictor",
            weather=forecast,
        )

    def _columnar_population(
        self,
        prediction: FleetPrediction,
        interval: TimeInterval,
        forecast: WeatherSample,
        materialise: str = DEFAULT_MATERIALISE_MODE,
    ) -> CustomerPopulation:
        """The fleet path: batched kernels, no per-household loop."""
        fleet = self.fleet
        if list(prediction.household_ids) != fleet.household_ids:
            raise ValueError("prediction household order does not match the fleet")
        requirements = self.preference_model.requirements_for_fleet(
            fleet, interval, forecast
        )
        return CustomerPopulation.from_fleet(
            fleet=fleet,
            predicted_uses=prediction.average_in(interval),
            requirements=requirements,
            normal_use=self.normal_capacity_kw,
            interval=interval,
            max_allowed_overuse=self.max_allowed_overuse_fraction * self.normal_capacity_kw,
            weather=forecast,
            materialise=materialise,
        )

    def _scalar_population(
        self, prediction: FleetPrediction, interval: TimeInterval, forecast: WeatherSample
    ) -> CustomerPopulation:
        """The per-household object loop (equivalence oracle / fallback)."""
        per_household = prediction.as_result().household_prediction_in(interval)
        specs = []
        for household in self.households:
            predicted = per_household[household.household_id]
            requirements = self.preference_model.requirements_for_household(
                household, interval, forecast
            )
            specs.append(
                CustomerSpec(
                    customer_id=household.household_id,
                    predicted_use=predicted,
                    allowed_use=predicted,
                    requirements=requirements,
                    household=household,
                )
            )
        return CustomerPopulation(
            specs=specs,
            normal_use=self.normal_capacity_kw,
            interval=interval,
            max_allowed_overuse=self.max_allowed_overuse_fraction * self.normal_capacity_kw,
            households=self.households,
            weather=forecast,
        )


@dataclass
class CampaignDay:
    """Outcome of one day of the campaign."""

    day_index: int
    weather: WeatherSample
    negotiated: bool
    outcome: Optional[SystemResult]
    prediction_error: Optional[float] = None
    #: Which engine backend ran the day's negotiation (``None`` when the day
    #: needed none).  Deliberately not part of :meth:`as_row`: by the
    #: equivalence contract the backend choice never changes the outcome, so
    #: rows stay comparable across backends.
    backend: Optional[str] = None
    #: Execution provenance from the day's negotiation — the effective
    #: rounds mode and kernel-cache hit/miss counters when the fast path
    #: reported them.  Like ``backend``, never part of :meth:`as_row`.
    metadata: dict[str, object] = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "day": self.day_index,
            "temperature_c": self.weather.temperature_c,
            "condition": self.weather.condition.value,
            "negotiated": self.negotiated,
        }
        if self.outcome is not None:
            row.update(
                {
                    "peak_before_kw": self.outcome.peak_before_kw,
                    "peak_after_kw": self.outcome.peak_after_kw,
                    "reward_paid": self.outcome.reward_paid,
                    "net_utility_benefit": self.outcome.net_utility_benefit,
                }
            )
        if self.prediction_error is not None:
            row["prediction_mape"] = self.prediction_error
        return row


@dataclass
class CampaignResult:
    """Outcome of a multi-day campaign."""

    days: list[CampaignDay] = field(default_factory=list)
    #: Wall-clock spent in the planning layer (observe / predict / plan) and
    #: in the negotiation-plus-accounting layer, across the whole campaign.
    planning_seconds: float = 0.0
    negotiation_seconds: float = 0.0
    #: Run bookkeeping recorded by the façade (backend requested, planning
    #: mode, per-day backends); never part of :meth:`rows`.
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def num_days(self) -> int:
        return len(self.days)

    @property
    def days_negotiated(self) -> int:
        return sum(1 for day in self.days if day.negotiated)

    @property
    def total_reward_paid(self) -> float:
        return sum(day.outcome.reward_paid for day in self.days if day.outcome is not None)

    @property
    def total_net_benefit(self) -> float:
        return sum(
            day.outcome.net_utility_benefit for day in self.days if day.outcome is not None
        )

    @property
    def backends(self) -> list[Optional[str]]:
        """Engine backend per day (``None`` on days without a negotiation)."""
        return [day.backend for day in self.days]

    def rows(self) -> list[dict[str, object]]:
        return [day.as_row() for day in self.days]


class MultiDayCampaign:
    """Observe, predict, negotiate and account over a sequence of days.

    Each day's negotiation runs through the :mod:`repro.api` engine façade
    with the given ``backend`` and :class:`~repro.api.EngineConfig`; the
    default ``backend="auto"`` selects the vectorized fast path whenever the
    planned scenario qualifies, which is what makes multi-week campaigns over
    10k-household populations tractable.  The backend that actually ran each
    day is recorded on the :class:`CampaignDay`, and the planning- versus
    negotiation-phase wall-clock split on the :class:`CampaignResult`.
    """

    def __init__(
        self,
        planner: DayAheadPlanner,
        production: Optional[ProductionModel] = None,
        weather_model: Optional[WeatherModel] = None,
        warmup_days: int = 3,
        seed: int = 0,
        backend: str = "auto",
        config: Optional["EngineConfig"] = None,
    ) -> None:
        if warmup_days <= 0:
            raise ValueError("the predictor needs at least one warm-up day")
        if backend != "auto":
            # Imported lazily: repro.api depends on repro.core's session
            # modules.  An unknown name fails here, before any day runs,
            # instead of inside the first day's negotiation.
            from repro.api.engine import get_backend

            get_backend(backend)
        self.planner = planner
        self.production = production or ProductionModel.two_tier(
            normal_capacity_kw=planner.normal_capacity_kw,
            peak_capacity_kw=planner.normal_capacity_kw,
        )
        self.weather_model = weather_model or WeatherModel(RandomSource(seed, "campaign_weather"))
        self.warmup_days = int(warmup_days)
        self.seed = seed
        self.backend = backend
        self.config = config
        if config is not None and config.history_window is not None:
            # A set window governs the campaign: re-bound the planner's
            # predictor in place (keeps the most recent days when shrinking;
            # the re-bound persists after the campaign), so campaign memory
            # is O(window · N · slots).  None leaves the planner's own
            # predictor configuration untouched.
            planner.set_history_window(config.history_window)

    def run(
        self,
        num_days: int,
        conditions: Optional[Sequence[WeatherCondition]] = None,
        checkpoint_path: Optional[str | os.PathLike] = None,
        resume_from: Optional[str | os.PathLike] = None,
    ) -> CampaignResult:
        """Run the campaign for ``num_days`` (after the warm-up observations).

        ``checkpoint_path`` persists a :class:`~repro.core.checkpoint.
        CampaignCheckpoint` after each completed day (atomically — a crash
        mid-write leaves the previous snapshot intact); ``resume_from``
        restores one and continues at its next day, producing rows
        bit-identical to the uninterrupted run.  Resuming requires the same
        campaign construction (seed, warm-up, households, backend — enforced
        via the checkpoint fingerprint) and the same ``conditions`` sequence.

        A day that raises does not discard the campaign: the exception is
        recorded under ``metadata["failed_day"]`` / ``metadata["failure"]``
        and the result returned with every completed day's rows, so a
        two-week campaign that dies on day 13 still yields twelve days of
        data (and, with ``checkpoint_path``, a snapshot to resume from).
        """
        if num_days <= 0:
            raise ValueError("num_days must be positive")
        planning_mode = self.config.planning if self.config is not None else None
        materialise_mode = self.config.materialise if self.config is not None else None
        result = CampaignResult()
        if resume_from is not None:
            start_day = self._restore_checkpoint(resume_from, result)
            if start_day >= num_days:
                return result
        else:
            start_day = 0
            # Warm up the predictor on mild reference days, in one batch.
            start = time.perf_counter()
            self.planner.observe_days(
                [self.weather_model.reference_day() for __ in range(self.warmup_days)]
            )
            result.planning_seconds += time.perf_counter() - start
        for day_index in range(start_day, num_days):
            try:
                self._run_day(
                    day_index, conditions, planning_mode, materialise_mode, result
                )
            except Exception as error:
                # A failed day degrades the campaign to a partial result
                # instead of discarding every completed day's rows.
                result.metadata["failed_day"] = day_index
                result.metadata["failure"] = f"{type(error).__name__}: {error}"
                break
            if checkpoint_path is not None:
                self._save_checkpoint(checkpoint_path, result, day_index + 1)
        return result

    def _run_day(
        self,
        day_index: int,
        conditions: Optional[Sequence[WeatherCondition]],
        planning_mode: Optional[str],
        materialise_mode: Optional[str],
        result: CampaignResult,
    ) -> None:
        """Sample, plan, negotiate and account one day onto ``result``."""
        condition = conditions[day_index % len(conditions)] if conditions else None
        weather = self.weather_model.sample(condition)
        start = time.perf_counter()
        scenario = self.planner.plan(
            weather, planning=planning_mode, materialise=materialise_mode
        )
        result.planning_seconds += time.perf_counter() - start
        if scenario is None or scenario.population.initial_overuse <= scenario.population.max_allowed_overuse:
            result.days.append(
                CampaignDay(day_index=day_index, weather=weather, negotiated=False, outcome=None)
            )
        else:
            start = time.perf_counter()
            system = LoadBalancingSystem(
                scenario,
                production=self.production,
                seed=self.seed + day_index,
                backend=self.backend,
                config=self.config,
            )
            outcome = system.run()
            result.negotiation_seconds += time.perf_counter() - start
            backend = (
                outcome.negotiation.metadata.get("backend")
                if outcome.negotiation is not None
                else None
            )
            day_metadata: dict[str, object] = {}
            if outcome.negotiation is not None:
                for key in ("rounds_mode", "kernel_cache"):
                    value = outcome.negotiation.metadata.get(key)
                    if value is not None:
                        day_metadata[key] = value
            if self.planner.planning_fallback is not None:
                day_metadata["planning_fallback"] = self.planner.planning_fallback
            result.days.append(
                CampaignDay(
                    day_index=day_index, weather=weather,
                    negotiated=outcome.negotiated, outcome=outcome,
                    backend=backend, metadata=day_metadata,
                )
            )
        # The day actually happens and the predictor learns from it.
        start = time.perf_counter()
        self.planner.observe_day(weather)
        result.planning_seconds += time.perf_counter() - start

    # -- checkpoint / resume -----------------------------------------------------

    def _fingerprint(self) -> dict[str, object]:
        """Parameters that must match between a checkpoint and a resume."""
        return {
            "seed": self.seed,
            "warmup_days": self.warmup_days,
            "num_households": len(self.planner.households),
            "backend": self.backend,
        }

    def _save_checkpoint(
        self, path: str | os.PathLike, result: CampaignResult, next_day: int
    ) -> None:
        """Snapshot everything the day loop threads between days."""
        CampaignCheckpoint(
            version=CHECKPOINT_VERSION,
            fingerprint=self._fingerprint(),
            next_day=next_day,
            days=list(result.days),
            planning_seconds=result.planning_seconds,
            negotiation_seconds=result.negotiation_seconds,
            predictor=self.planner.predictor,
            weather_rng_state=self.weather_model._random.state(),
            demand_rng_state=self.planner._demand_model._random.state(),
        ).save(path)

    def _restore_checkpoint(
        self, path: str | os.PathLike, result: CampaignResult
    ) -> int:
        """Restore a snapshot into this campaign; returns the first day to run.

        The predictor object (with its observation buffer) replaces the
        planner's, the weather and demand streams rewind to their recorded
        positions, and the accumulated days and wall-clock land on
        ``result`` — the warm-up is already inside the restored predictor,
        so the caller must skip it.
        """
        snapshot = CampaignCheckpoint.load(path)
        snapshot.validate_fingerprint(self._fingerprint())
        self.planner.predictor = snapshot.predictor
        # The memoised prediction belongs to the replaced predictor.
        self.planner._prediction_cache = None
        self.planner._demand_model._random.set_state(snapshot.demand_rng_state)
        self.weather_model._random.set_state(snapshot.weather_rng_state)
        result.days = list(snapshot.days)
        result.planning_seconds = snapshot.planning_seconds
        result.negotiation_seconds = snapshot.negotiation_seconds
        result.metadata["resumed_from_day"] = snapshot.next_day
        return snapshot.next_day
