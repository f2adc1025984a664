"""repro.api — the one entry point for running negotiations.

Every in-repo negotiation run (experiments, CLI, the load-balancing system,
planning campaigns, examples and benchmarks) goes through this façade::

    from repro.api import run, scenario

    result = run(scenario().households(200).build())          # backend="auto"
    result = run(my_scenario, backend="object", seed=3)       # explicit backend

The pieces:

* :func:`run` — dispatches a scenario to a backend by name;
  ``backend="auto"`` picks the vectorized fast path when the scenario
  qualifies and the faithful object path otherwise, recording the choice
  in ``result.metadata["backend"]``.
* :func:`campaign` — runs a multi-day planning campaign
  (:class:`~repro.core.planning.MultiDayCampaign`) through the same backends
  and :class:`EngineConfig`, with columnar day-ahead planning by
  default and per-day backend choices recorded in the result.
* :class:`EngineConfig` — consolidates the former kwarg sprawl (``seed``,
  ``max_simulation_rounds``, ``check_protocol``, …) plus the campaign
  ``planning`` path.
* :class:`NegotiationEngine` / :func:`get_backend` — the three backends,
  ``"object"``, ``"vectorized"`` and ``"sharded"`` (the last runs only when
  requested by name).
* :func:`scenario` / :class:`ScenarioBuilder` — fluent scenario construction.

The façade also has a network form: ``python -m repro serve``
(:mod:`repro.serve`) exposes :func:`run` as a long-lived HTTP service with
request-coalescing micro-batching — concurrent compatible requests share one
combined vectorized kernel arena, each request's result bit-identical to a
solo :func:`run` call.  See the README's *Serving* section.
"""

from repro.api.builder import ScenarioBuilder, scenario
from repro.api.campaign import campaign
from repro.api.config import EngineConfig
from repro.core.checkpoint import CampaignCheckpoint
from repro.runtime.faults import FaultPlan
from repro.api.engine import (
    BackendError,
    BackendUnsupportedError,
    NegotiationEngine,
    UnknownBackendError,
    get_backend,
    run,
    select_backend,
)

__all__ = [
    "BackendError",
    "BackendUnsupportedError",
    "CampaignCheckpoint",
    "EngineConfig",
    "FaultPlan",
    "NegotiationEngine",
    "ScenarioBuilder",
    "UnknownBackendError",
    "campaign",
    "get_backend",
    "run",
    "scenario",
    "select_backend",
]
