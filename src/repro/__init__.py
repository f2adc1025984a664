"""repro — reproduction of "Agents Negotiating for Load Balancing of Electricity Use".

Brazier, Cornelissen, Gustavsson, Jonker, Lindeberg, Polak, Treur (ICDCS 1998).

The package is organised in layers:

* :mod:`repro.runtime` — deterministic discrete-event multi-agent runtime.
* :mod:`repro.desire` — the DESIRE compositional modelling framework the
  paper's agents are designed in.
* :mod:`repro.grid` — the electricity-demand substrate (appliances,
  households, weather, demand curves, prediction, production, tariffs).
* :mod:`repro.negotiation` — the monotonic concession protocol, the Section 6
  formulae and the three announcement methods.
* :mod:`repro.agents` — the Utility Agent, Customer Agents and supporting
  agents, with their DESIRE task hierarchies.
* :mod:`repro.market` — the computational-market baseline.
* :mod:`repro.core` — scenarios, negotiation sessions and the full
  load-balancing pipeline.
* :mod:`repro.api` — the engine façade: one ``run()`` entry point over
  the negotiation backends, plus the fluent scenario builder.
* :mod:`repro.analysis` — metrics, convergence analysis and ASCII plotting.
* :mod:`repro.experiments` — one module per reproduced figure/experiment.

Quickstart::

    from repro.api import run, scenario

    result = run(scenario().paper_prototype().build())
    print(result.summary())
"""

from repro.core import (
    LoadBalancingSystem,
    NegotiationResult,
    Scenario,
    SystemResult,
    paper_prototype_scenario,
    synthetic_scenario,
)
from repro import api
from repro.api import EngineConfig, ScenarioBuilder

__version__ = "1.1.0"

__all__ = [
    "EngineConfig",
    "LoadBalancingSystem",
    "NegotiationResult",
    "Scenario",
    "ScenarioBuilder",
    "SystemResult",
    "__version__",
    "api",
    "paper_prototype_scenario",
    "synthetic_scenario",
]
