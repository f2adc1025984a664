"""Core library: scenarios, negotiation sessions and the load-balancing system.

This package ties the substrates together into the system the paper's
prototype demonstrates:

* :mod:`repro.core.scenario` — scenario definitions, including the calibrated
  reproduction of the prototype scenario behind Figures 6-9.
* :mod:`repro.core.session` — :class:`NegotiationSession`: builds the Utility
  Agent and the Customer Agents for a scenario, runs the round-synchronous
  multi-agent negotiation over the message bus and collects the results.
* :mod:`repro.core.fast_session` — :class:`FastSession`: the vectorized fast
  path; identical outcomes to :class:`NegotiationSession` at fixed seeds,
  batched numpy bid decisions, scales to 10,000 households.
* :mod:`repro.core.sharded_session` — :class:`ShardedSession`: the parallel
  runtime; the vectorized population cut into per-core shards with each
  round's kernels fanned out to a thread pool, identical outcomes again,
  scales to 50,000 households.
* :mod:`repro.core.results` — result value types and derived metrics.
* :mod:`repro.core.system` — :class:`LoadBalancingSystem`: the full pipeline
  (predict demand, decide whether to negotiate, negotiate, apply the awarded
  cut-downs, account for costs and rewards).

Negotiations run through the :mod:`repro.api` façade
(``repro.api.run(scenario)``), which dispatches to the right execution
backend; the session classes live in their home modules.
"""

from repro.core.planning import (
    CampaignDay,
    CampaignResult,
    DayAheadPlanner,
    MultiDayCampaign,
)
from repro.core.results import CustomerOutcome, NegotiationResult, SystemResult
from repro.core.scenario import (
    Scenario,
    paper_prototype_scenario,
    synthetic_scenario,
)
from repro.core.system import LoadBalancingSystem

__all__ = [
    "CampaignDay",
    "CampaignResult",
    "CustomerOutcome",
    "DayAheadPlanner",
    "LoadBalancingSystem",
    "MultiDayCampaign",
    "NegotiationResult",
    "Scenario",
    "SystemResult",
    "paper_prototype_scenario",
    "synthetic_scenario",
]
