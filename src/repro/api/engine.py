"""Negotiation engines: one dispatching entry point over three backends.

The paper separates *what* is negotiated (scenario, reward tables, methods)
from *how* the agent society executes it.  A :class:`NegotiationEngine`
wraps one execution strategy behind a common ``run(scenario, config)``
interface, and :func:`run` dispatches to one by name:

* ``"object"`` — the faithful object path
  (:class:`~repro.core.session.NegotiationSession`);
* ``"vectorized"`` — the batched fast path
  (:class:`~repro.core.fast_session.FastSession`);
* ``"sharded"`` — the vectorized data plane cut into per-core thread shards
  (:class:`~repro.core.sharded_session.ShardedSession`), run only when
  requested by name.

``backend="auto"`` is a two-way choice: ``vectorized`` when the scenario
rides the batched kernels end to end (a method with batched kernels, at
most :data:`~repro.agents.vectorized.GRID_GROUP_AUTO_CAP` requirement
grids, no extra agents requested), the object path otherwise.  Which
backend actually ran is recorded in ``NegotiationResult.metadata["backend"]``;
by the fast-path equivalence contract the choice never changes the result,
only the wall-clock.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.agents.vectorized import GRID_GROUP_AUTO_CAP, shares_requirement_grid
from repro.api.config import EngineConfig
from repro.core.fast_session import FastSession
from repro.core.results import NegotiationResult
from repro.core.scenario import Scenario
from repro.core.session import NegotiationSession
from repro.core.sharded_session import ShardedSession
from repro.negotiation.methods.offer import OfferMethod
from repro.negotiation.methods.request_for_bids import RequestForBidsMethod
from repro.negotiation.methods.reward_tables import RewardTablesMethod
from repro.negotiation.strategy import (
    ExpectedGainBidding,
    HighestAcceptableCutdownBidding,
)


class BackendError(Exception):
    """Base class for backend lookup and dispatch errors."""


class UnknownBackendError(BackendError, LookupError):
    """No backend exists under the requested name."""


class BackendUnsupportedError(BackendError, ValueError):
    """The explicitly requested backend cannot run this scenario/config."""


class NegotiationEngine(abc.ABC):
    """One way of executing a negotiation scenario.

    Subclasses wrap a session type.  Engines are stateless: one instance in
    :data:`BACKENDS` serves every :func:`run` call.
    """

    #: The name :func:`run` and :func:`get_backend` know the engine by.
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, scenario: Scenario, config: EngineConfig) -> NegotiationResult:
        """Execute the negotiation and return its result."""

    def can_run(
        self, scenario: Scenario, config: EngineConfig
    ) -> tuple[bool, str]:
        """Hard capability check: can this engine run the scenario at all?

        Returns ``(ok, reason)``; the reason explains a refusal.  Explicitly
        selecting a backend that cannot run raises
        :class:`BackendUnsupportedError` with that reason.
        """
        return True, ""


# -- built-in backends ----------------------------------------------------------------


class ObjectBackend(NegotiationEngine):
    """The faithful multi-agent object path.

    One agent object per household, real messages over the bus, DESIRE
    process models, optional Producer / External World / Resource Consumer
    agents — the reference execution for paper-facing figures and the
    fallback of ``backend="auto"``.
    """

    name = "object"

    def run(self, scenario: Scenario, config: EngineConfig) -> NegotiationResult:
        return NegotiationSession(scenario, **config.session_kwargs()).run()


#: Reward-table bidding policies with batched kernels on
#: :class:`~repro.agents.vectorized.VectorizedPopulation`.
_VECTORIZED_POLICIES = (HighestAcceptableCutdownBidding, ExpectedGainBidding)


def _distinct_requirement_grids(scenario: Scenario) -> int:
    """How many distinct cut-down grids the customers' requirement tables use.

    Mirrors the vectorized layer's own packing criteria so auto-selection and
    ``VectorizedPopulation`` can never drift apart: one grid rides the single
    shared requirement matrix, up to :data:`~repro.agents.vectorized
    .GRID_GROUP_AUTO_CAP` grids ride the grouped per-grid kernels, and more
    than that falls back to the scalar per-customer code.  Lazily
    materialised populations share one grid by construction (their tables
    all come from a single ``FleetRequirements`` matrix), so the check must
    not — and does not — touch ``population.specs``.
    """
    if scenario.population.columnar_view() is not None:
        return 1
    requirements = [spec.requirements for spec in scenario.population.specs]
    if shares_requirement_grid(requirements):
        return 1
    return len({tuple(table.cutdowns()) for table in requirements})


def _no_full_society(config: EngineConfig) -> tuple[bool, str]:
    """Hard capability check shared by the batched (non-object) backends."""
    if config.needs_full_agent_society:
        return False, (
            "producer / external-world / resource-consumer agents require "
            "the object path"
        )
    return True, ""


def _fast_path_qualifies(
    scenario: Scenario, config: EngineConfig
) -> tuple[bool, str]:
    """Whether the scenario rides the batched kernels end to end.

    The one test behind ``backend="auto"`` (and the serving layer's batch
    executor): a scenario that would hit the fast path's scalar fallback
    runs on the object path instead.
    """
    ok, reason = _no_full_society(config)
    if not ok:
        return ok, reason
    method = scenario.method
    if isinstance(method, RewardTablesMethod):
        # Exact-type match, mirroring FastSession's kernel dispatch: a
        # policy *subclass* would hit the fast path's history-free scalar
        # fallback and could diverge from the object path, so it must not
        # qualify for automatic selection.
        if type(method.bidding_policy) not in _VECTORIZED_POLICIES:
            return False, (
                f"no batched kernel for bidding policy "
                f"{type(method.bidding_policy).__name__}"
            )
    elif not isinstance(method, (OfferMethod, RequestForBidsMethod)):
        return False, f"no batched kernel for method {type(method).__name__}"
    distinct_grids = _distinct_requirement_grids(scenario)
    if distinct_grids > GRID_GROUP_AUTO_CAP:
        return False, (
            f"{distinct_grids} distinct requirement grids exceed the "
            f"grouped-kernel cap of {GRID_GROUP_AUTO_CAP} (scalar fallback)"
        )
    return True, ""


class VectorizedBackend(NegotiationEngine):
    """The batched numpy fast path (:class:`~repro.core.fast_session.FastSession`).

    Bit-identical to the object path at equal seeds; scales to 10k+
    households.  It cannot host the extra agents of the full society, so
    configurations requesting them are refused.
    """

    name = "vectorized"

    def run(self, scenario: Scenario, config: EngineConfig) -> NegotiationResult:
        return FastSession(scenario, **config.fast_session_kwargs()).run()

    def can_run(
        self, scenario: Scenario, config: EngineConfig
    ) -> tuple[bool, str]:
        return _no_full_society(config)


class ShardedBackend(NegotiationEngine):
    """The thread-sharded runtime (:class:`~repro.core.sharded_session.ShardedSession`).

    Partitions the vectorized population into per-core shards and fans each
    round's kernels out to a thread pool; bit-identical to the vectorized and
    object paths at equal seeds.  It does not beat ``vectorized`` on the
    benchmark, so ``backend="auto"`` never picks it; it runs only when
    requested by name.
    """

    name = "sharded"

    def run(self, scenario: Scenario, config: EngineConfig) -> NegotiationResult:
        session = ShardedSession(scenario, **config.sharded_session_kwargs())
        result = session.run()
        result.metadata["shards"] = session.num_shards
        return result

    def can_run(
        self, scenario: Scenario, config: EngineConfig
    ) -> tuple[bool, str]:
        return _no_full_society(config)


#: Every backend by name; :func:`get_backend` and :func:`run` read it.
BACKENDS: dict[str, NegotiationEngine] = {
    engine.name: engine
    for engine in (ObjectBackend(), VectorizedBackend(), ShardedBackend())
}


def get_backend(name: str) -> NegotiationEngine:
    """Look up a backend by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown negotiation backend {name!r}; backends: "
            f"{', '.join(sorted(BACKENDS))} (or 'auto')"
        ) from None


# -- dispatch --------------------------------------------------------------------------


def select_backend(
    scenario: Scenario, config: EngineConfig
) -> tuple[NegotiationEngine, dict[str, str]]:
    """The engine ``backend="auto"`` picks, plus why the fast path was passed over.

    ``vectorized`` when :func:`_fast_path_qualifies` passes, ``object``
    otherwise; the second element is ``{}`` or ``{"vectorized": reason}``.
    """
    ok, reason = _fast_path_qualifies(scenario, config)
    if ok:
        return BACKENDS["vectorized"], {}
    return BACKENDS["object"], {"vectorized": reason}


def run(
    scenario: Scenario,
    backend: str = "auto",
    config: Optional[EngineConfig] = None,
    **overrides: object,
) -> NegotiationResult:
    """Run one negotiation through the engine façade.

    Parameters
    ----------
    scenario:
        The :class:`~repro.core.scenario.Scenario` to negotiate (build one
        with :func:`repro.api.scenario` or the ``repro.core.scenario``
        factories).
    backend:
        ``"object"``, ``"vectorized"``, ``"sharded"``, or ``"auto"``
        (default): ``vectorized`` when the scenario qualifies for the batched
        kernels, ``object`` otherwise.
    config:
        An :class:`EngineConfig`; defaults to ``EngineConfig()``.
    **overrides:
        Individual :class:`EngineConfig` fields overriding ``config``, e.g.
        ``run(scenario, seed=3, check_protocol=False)``.

    Returns
    -------
    NegotiationResult
        With ``metadata["backend"]`` set to the backend that actually ran.
    """
    resolved = config if config is not None else EngineConfig()
    if overrides:
        resolved = resolved.replace(**overrides)
    rejections: dict[str, str] = {}
    if backend == "auto":
        engine, rejections = select_backend(scenario, resolved)
    else:
        engine = get_backend(backend)
        ok, reason = engine.can_run(scenario, resolved)
        if not ok:
            raise BackendUnsupportedError(
                f"backend {backend!r} cannot run scenario "
                f"{scenario.name!r}: {reason}"
            )
    result = engine.run(scenario, resolved)
    result.metadata["backend"] = engine.name
    if backend == "auto":
        # Why the fast path was passed over (empty when it ran).
        result.metadata["backend_rejections"] = rejections
    planning_fallback = getattr(scenario.population, "planning_fallback", None)
    if planning_fallback is not None:
        # The population was asked for columnar planning but fell back to
        # the scalar per-household loop — surface why, instead of the former
        # silent degradation.
        result.metadata["planning_fallback"] = planning_fallback
    return result
