"""Request schemas and the canonical result payload of the serving layer.

A serve request is a JSON document with two objects mirroring the façade's
own vocabulary::

    {
      "scenario": {"family": "synthetic", "households": 200, "seed": 7,
                   "method": "reward_tables", "beta": 1.5},
      "config":   {"max_simulation_rounds": 200,
                   "fault_plan": {"seed": 3, "crash_rate": 0.05}},
      "backend":  "auto"
    }

``scenario`` carries the :class:`~repro.api.builder.ScenarioBuilder` knobs,
``config`` the :class:`~repro.api.config.EngineConfig` fields and ``backend``
the engine choice (``"auto"`` lets the server coalesce the request into a
batched kernel pass when it qualifies).  Validation follows the
:mod:`repro.core.modes` convention: unknown keys and invalid values fail at
parse time with one canonical message naming the accepted options, so a
typo'd request is a 400 with a useful body instead of a silently different
negotiation.

:func:`result_payload` is the canonical JSON serialisation of a
:class:`~repro.core.results.NegotiationResult`.  The serving layer's
bit-identity contract is stated over it: the payload a served request
resolves to equals the payload of a solo ``repro.api.run`` of the same
request, byte for byte (JSON float serialisation is shortest-round-trip
``repr``, so two payloads agree exactly iff every float is the same double).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from repro.api.config import EngineConfig
from repro.core.results import NegotiationResult
from repro.core.scenario import (
    Scenario,
    paper_prototype_scenario,
    synthetic_default_method,
    synthetic_population,
)
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.runtime.faults import FaultPlan

#: Scenario families the server builds.
SERVE_FAMILIES: tuple[str, ...] = ("synthetic", "paper")

#: Announcement methods the server resolves by name (the builder's names).
SERVE_METHODS: tuple[str, ...] = ("reward_tables", "offer", "request_for_bids")

#: Backends a request may pin.  ``"auto"`` (default) lets the server route:
#: vectorized-qualifying requests coalesce into batched kernel passes,
#: everything else runs solo on the backend the façade would pick.
SERVE_BACKENDS: tuple[str, ...] = ("auto", "object", "vectorized", "sharded")

_SCENARIO_KEYS = {
    "family", "households", "seed", "cold_snap", "planning", "method",
    "beta", "max_reward", "max_allowed_overuse",
}
_CONFIG_KEYS = {
    "seed", "max_simulation_rounds", "check_protocol", "retain_message_log",
    "include_producer", "include_external_world", "with_resource_consumers",
    "shards", "fault_plan", "rounds",
}
_FAULT_PLAN_KEYS = {field.name for field in dataclasses.fields(FaultPlan)}
_TOP_LEVEL_KEYS = {"scenario", "config", "backend", "deadline_ms"}

#: ``NegotiationResult.metadata`` keys that are part of the canonical
#: payload.  Keys outside the whitelist (``backend_rejections`` diagnostics,
#: future additions) are execution-planner internals and excluded so served
#: and solo payloads compare equal.
_METADATA_KEYS = ("backend", "shards", "faults")


class RequestValidationError(ValueError):
    """A serve request failed schema validation (maps to HTTP 400)."""


def _require_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise RequestValidationError(f"{where} must be a JSON object")
    return value


def _reject_unknown_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise RequestValidationError(
            f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(sorted(allowed))}"
        )


def validate_family(family: str) -> str:
    """Return ``family`` or raise naming the accepted scenario families."""
    if family not in SERVE_FAMILIES:
        raise RequestValidationError(
            f"unknown scenario family {family!r}; expected one of {SERVE_FAMILIES}"
        )
    return family


def validate_serve_backend(backend: str) -> str:
    """Return ``backend`` or raise naming the accepted serve backends."""
    if backend not in SERVE_BACKENDS:
        raise RequestValidationError(
            f"unknown backend {backend!r}; expected one of {SERVE_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated, hashable description of the scenario to negotiate.

    Frozen and hashable so it can key the server's population cache:
    two requests about the same town share one generated
    :class:`~repro.agents.population.CustomerPopulation` (read-only during
    negotiation) while each gets a fresh — stateful — method object.
    """

    family: str = "synthetic"
    households: int = 50
    seed: int = 0
    cold_snap: bool = True
    planning: str = "columnar"
    method: str = "reward_tables"
    beta: Optional[float] = None
    max_reward: Optional[float] = None
    max_allowed_overuse: Optional[float] = None

    @classmethod
    def from_mapping(cls, raw: Any) -> "ScenarioSpec":
        mapping = _require_mapping(raw, '"scenario"')
        _reject_unknown_keys(mapping, _SCENARIO_KEYS, '"scenario"')
        family = validate_family(str(mapping.get("family", "synthetic")))
        method = str(mapping.get("method", "reward_tables"))
        if method not in SERVE_METHODS:
            raise RequestValidationError(
                f"unknown method {method!r}; expected one of {SERVE_METHODS}"
            )
        if family == "paper":
            for key in ("households", "seed", "cold_snap", "planning"):
                if key in mapping:
                    raise RequestValidationError(
                        f'"scenario.{key}" configures the synthetic population; '
                        f"the calibrated paper scenario has a fixed population "
                        f"of 20 customers"
                    )
            if method != "reward_tables":
                raise RequestValidationError(
                    "the calibrated paper scenario uses its own calibrated "
                    "reward-tables method; request other methods on a "
                    "synthetic scenario"
                )
        elif "max_allowed_overuse" in mapping:
            raise RequestValidationError(
                '"scenario.max_allowed_overuse" is a paper-scenario parameter; '
                "synthetic populations derive it from the generated capacity"
            )
        if method != "reward_tables":
            for key in ("beta", "max_reward"):
                if key in mapping:
                    raise RequestValidationError(
                        f'"scenario.{key}" only applies to the reward-tables '
                        f"method, not {method!r}"
                    )
        try:
            households = int(mapping.get("households", 50))
            if households <= 0:
                raise RequestValidationError("household count must be positive")
            spec = cls(
                family=family,
                households=households,
                seed=int(mapping.get("seed", 0)),
                cold_snap=bool(mapping.get("cold_snap", True)),
                planning=str(mapping.get("planning", "columnar")),
                method=method,
                beta=(
                    float(mapping["beta"]) if mapping.get("beta") is not None else None
                ),
                max_reward=(
                    float(mapping["max_reward"])
                    if mapping.get("max_reward") is not None
                    else None
                ),
                max_allowed_overuse=(
                    float(mapping["max_allowed_overuse"])
                    if mapping.get("max_allowed_overuse") is not None
                    else None
                ),
            )
        except RequestValidationError:
            raise
        except (TypeError, ValueError) as error:
            raise RequestValidationError(f'invalid "scenario" value: {error}') from None
        if spec.beta is not None and spec.beta <= 0:
            raise RequestValidationError("beta must be positive")
        if spec.max_reward is not None and spec.max_reward <= 0:
            raise RequestValidationError("max_reward must be positive")
        if spec.max_allowed_overuse is not None and spec.max_allowed_overuse < 0:
            raise RequestValidationError("max allowed overuse must be non-negative")
        # Planning mode validation via the canonical validator.
        from repro.core.modes import validate_planning_mode

        try:
            validate_planning_mode(spec.planning)
        except ValueError as error:
            raise RequestValidationError(str(error)) from None
        return spec

    # -- construction -----------------------------------------------------------

    def population_key(self) -> Optional[tuple]:
        """Cache key of the (immutable) population this spec generates."""
        if self.family != "synthetic":
            return None
        return ("synthetic", self.households, self.seed, self.cold_snap, self.planning)

    def build_scenario(self, population_cache: Optional[dict] = None) -> Scenario:
        """Materialise the scenario, generating or reusing its population.

        The construction goes through the same factories as
        :class:`~repro.api.builder.ScenarioBuilder` (``synthetic_population``
        + ``synthetic_default_method`` are exactly what
        :func:`~repro.core.scenario.synthetic_scenario` calls), so a served
        scenario is value-identical to the one a solo ``repro.api.run`` call
        would negotiate.  Only the population — deterministic and read-only —
        is cached; the method object holds per-run negotiation state and is
        built fresh for every request.
        """
        if self.family == "paper":
            kwargs: dict[str, Any] = {}
            if self.beta is not None:
                kwargs["beta"] = self.beta
            if self.max_reward is not None:
                kwargs["max_reward"] = self.max_reward
            if self.max_allowed_overuse is not None:
                kwargs["max_allowed_overuse"] = self.max_allowed_overuse
            return paper_prototype_scenario(**kwargs)
        key = self.population_key()
        cached = population_cache.get(key) if population_cache is not None else None
        if cached is None:
            cached = synthetic_population(
                num_households=self.households,
                seed=self.seed,
                cold_snap=self.cold_snap,
                planning=self.planning,
            )
            if population_cache is not None:
                population_cache[key] = cached
        population, weather = cached
        if self.method == "offer":
            method = OfferMethod()
        elif self.method == "request_for_bids":
            method = RequestForBidsMethod()
        else:
            method_kwargs: dict[str, Any] = {}
            if self.beta is not None:
                method_kwargs["beta"] = self.beta
            if self.max_reward is not None:
                method_kwargs["max_reward"] = self.max_reward
            method = synthetic_default_method(**method_kwargs)
        return Scenario(
            name=f"synthetic_{self.households}",
            population=population,
            method=method,
            description=(
                f"Synthetic population of {self.households} households on a "
                f"{'severe-cold' if self.cold_snap else 'mild'} day."
            ),
            weather=weather,
        )


@dataclass(frozen=True)
class ServeRequest:
    """One validated negotiation request: scenario spec + engine config + backend.

    ``deadline_ms`` is the caller's *latency budget* in milliseconds, counted
    from the moment the server admits the request.  A request whose budget
    runs out before execution starts is failed fast with a
    ``deadline_exceeded`` record; one that exceeds it mid-negotiation is
    terminated between rounds with partial progress recorded.  The deadline
    bounds *waiting*, not the negotiation arithmetic — an admitted request
    that finishes in budget is bit-identical to an undeadlined one.
    """

    scenario: ScenarioSpec
    config: EngineConfig
    backend: str = "auto"
    deadline_ms: Optional[int] = None

    @classmethod
    def from_mapping(cls, raw: Any) -> "ServeRequest":
        """Parse and validate a decoded JSON request body."""
        mapping = _require_mapping(raw, "the request body")
        _reject_unknown_keys(mapping, _TOP_LEVEL_KEYS, "request")
        deadline_ms: Optional[int] = None
        if mapping.get("deadline_ms") is not None:
            try:
                deadline_ms = int(mapping["deadline_ms"])
            except (TypeError, ValueError):
                raise RequestValidationError(
                    '"deadline_ms" must be an integer millisecond budget'
                ) from None
            if deadline_ms <= 0:
                raise RequestValidationError('"deadline_ms" must be positive')
        scenario = ScenarioSpec.from_mapping(mapping.get("scenario"))
        config_raw = _require_mapping(mapping.get("config"), '"config"')
        _reject_unknown_keys(config_raw, _CONFIG_KEYS, '"config"')
        config_kwargs = dict(config_raw)
        fault_raw = config_kwargs.pop("fault_plan", None)
        if fault_raw is not None:
            fault_mapping = _require_mapping(fault_raw, '"config.fault_plan"')
            _reject_unknown_keys(
                fault_mapping, _FAULT_PLAN_KEYS, '"config.fault_plan"'
            )
            try:
                config_kwargs["fault_plan"] = FaultPlan(**fault_mapping)
            except (TypeError, ValueError) as error:
                raise RequestValidationError(
                    f'invalid "config.fault_plan": {error}'
                ) from None
        try:
            config = EngineConfig(**config_kwargs)
        except (TypeError, ValueError) as error:
            raise RequestValidationError(f'invalid "config": {error}') from None
        backend = validate_serve_backend(str(mapping.get("backend", "auto")))
        return cls(
            scenario=scenario,
            config=config,
            backend=backend,
            deadline_ms=deadline_ms,
        )

    def without_deadline(self) -> "ServeRequest":
        """This request with the latency budget stripped.

        Journal replay re-runs accepted-but-unfinished sessions after a
        restart; their original budgets have long passed, and the journal
        contract is a bit-identical *result*, so the replayed run is
        undeadlined.
        """
        if self.deadline_ms is None:
            return self
        return dataclasses.replace(self, deadline_ms=None)

    def describe(self) -> dict[str, Any]:
        """A JSON-safe echo of the request (stored on the session record).

        The echo re-parses through :meth:`from_mapping` to an equal request —
        the in-flight journal replays accepted sessions from it after a
        restart — so the paper family omits the synthetic-population knobs
        its validation rejects.
        """
        scenario = {
            key: value
            for key, value in dataclasses.asdict(self.scenario).items()
            if value is not None
        }
        if self.scenario.family == "paper":
            for key in ("households", "seed", "cold_snap", "planning"):
                scenario.pop(key, None)
        config = dataclasses.asdict(self.config)
        fault_plan = config.pop("fault_plan", None)
        config = {key: value for key, value in config.items() if key in _CONFIG_KEYS}
        if fault_plan is not None:
            config["fault_plan"] = fault_plan
        description = {"scenario": scenario, "config": config, "backend": self.backend}
        if self.deadline_ms is not None:
            description["deadline_ms"] = self.deadline_ms
        return description


def result_payload(result: NegotiationResult) -> dict[str, Any]:
    """The canonical JSON-safe serialisation of a negotiation result.

    Serving a request and running it solo through ``repro.api.run`` produce
    byte-identical payloads (``json.dumps(..., sort_keys=True)``) — the
    serving layer's determinism contract, enforced by the coalescing tests.
    """
    record = result.record
    termination = record.termination_reason
    metadata: dict[str, Any] = {}
    for key in _METADATA_KEYS:
        if key in result.metadata:
            metadata[key] = result.metadata[key]
    return {
        "scenario": result.scenario_name,
        "method": result.method_name,
        "simulation_rounds": result.simulation_rounds,
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "total_reward_paid": result.total_reward_paid,
        "degraded_households": result.degraded_households,
        "initial_overuse": record.initial_overuse,
        "final_overuse": record.final_overuse,
        "termination_reason": termination.value if termination is not None else None,
        "overuse_trajectory": list(record.overuse_trajectory),
        "customer_outcomes": {
            customer: {
                "final_bid_cutdown": outcome.final_bid_cutdown,
                "awarded": outcome.awarded,
                "committed_cutdown": outcome.committed_cutdown,
                "reward": outcome.reward,
                "surplus": outcome.surplus,
            }
            for customer, outcome in result.customer_outcomes.items()
        },
        "metadata": metadata,
    }
