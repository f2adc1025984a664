"""Span tracing installed from outside the program, for the traced runs.

The traced run wraps the public entry points of each ``repro`` layer in a
timing wrapper; untraced runs never call :func:`install`, so the end-to-end
numbers carry no wrapper cost.

Every wrapped call records one span ``(id, parent id, name, start ns, end ns,
thread)``.  The parent is the innermost wrapped call still open on the same
thread.  Spans stay in memory and are written as NDJSON once, at the end of
the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

#: ``(span name, defining module, attribute)``: what the traced run wraps.
#: Module-level functions are re-bound in every ``repro`` module that imported
#: them by name; methods are patched once, on the class that defines them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("grid.household_generate", "repro.grid.household", "Household.generate"),
    ("grid.pack_fleet", "repro.grid.fleet", "pack_fleet"),
    ("grid.capacity", "repro.grid.demand", "DemandModel.normal_capacity_for_target"),
    ("grid.demand_realise", "repro.grid.demand", "DemandModel.realise"),
    ("grid.observe", "repro.grid.prediction", "ConsumptionPredictor.observe_many"),
    ("grid.predict", "repro.grid.prediction", "ConsumptionPredictor.predict_columnar"),
    ("agents.requirements", "repro.agents.preferences",
     "CustomerPreferenceModel.requirements_for_fleet"),
    ("agents.population", "repro.agents.population", "CustomerPopulation.from_fleet"),
    ("agents.vectorized_pack", "repro.agents.vectorized",
     "VectorizedPopulation.from_population"),
    ("agents.vectorized_pack", "repro.agents.vectorized",
     "VectorizedPopulation.from_columnar"),
    ("agents.synthetic_population", "repro.core.scenario", "synthetic_population"),
    ("core.plan", "repro.core.planning", "DayAheadPlanner.plan"),
    ("core.observe_day", "repro.core.planning", "DayAheadPlanner.observe_day"),
    ("core.observe_day", "repro.core.planning", "DayAheadPlanner.observe_days"),
    ("core.negotiate", "repro.core.system", "LoadBalancingSystem.negotiate"),
    ("core.system_run", "repro.core.system", "LoadBalancingSystem.run"),
    ("core.session_run", "repro.core.fast_session", "FastSession.run"),
    ("core.session_run", "repro.core.sharded_session", "ShardedSession.run"),
    ("api.select_backend", "repro.api.engine", "select_backend"),
    ("serve.build_scenario", "repro.serve.schemas", "ScenarioSpec.build_scenario"),
    ("serve.execute_batch", "repro.serve.coalesce", "execute_batch"),
)

#: Per-layer time metrics: ``metric -> (span name, "total" | "self")``.
#: ``total`` sums the outermost spans of that name (a call nested in a call
#: of the same name is not counted twice); ``self`` subtracts the time the
#: span's wrapped children cover.
TIME_METRICS: dict[str, tuple[str, str]] = {
    "grid.household_generate_s": ("grid.household_generate", "total"),
    "grid.pack_fleet_s": ("grid.pack_fleet", "total"),
    "grid.capacity_s": ("grid.capacity", "total"),
    "grid.demand_realise_s": ("grid.demand_realise", "total"),
    "grid.observe_s": ("grid.observe", "total"),
    "grid.predict_s": ("grid.predict", "total"),
    "agents.requirements_s": ("agents.requirements", "total"),
    "agents.population_s": ("agents.population", "total"),
    "agents.vectorized_pack_s": ("agents.vectorized_pack", "total"),
    "agents.synthetic_population_s": ("agents.synthetic_population", "total"),
    "core.plan_self_s": ("core.plan", "self"),
    "core.observe_day_s": ("core.observe_day", "total"),
    "core.negotiate_s": ("core.negotiate", "total"),
    "core.accounting_s": ("core.system_run", "self"),
    "core.session_run_s": ("core.session_run", "total"),
    "api.select_backend_s": ("api.select_backend", "total"),
    "serve.execute_batch_s": ("serve.execute_batch", "total"),
}

#: Spans that make up a campaign's wall time between them: the tracer
#: self-check wants them to cover at least this share of ``campaign()``.
CAMPAIGN_TOP_SPANS = ("core.plan", "core.observe_day", "core.system_run")
MIN_COVERED_SHARE = 0.90


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recording one span named ``name`` per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, name, start, end, threading.get_ident()))

        return traced

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                    "thread": thread,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every target; import the modules first so every binding is seen."""
    for module_name in ("repro.api", "repro.serve", "repro.core.planning"):
        importlib.import_module(module_name)
    for name, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method_name = attribute.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method_name]
            if isinstance(raw, classmethod):
                setattr(owner, method_name, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, method_name, tracer.wrap(name, raw))
            continue
        original = getattr(module, attribute)
        traced = tracer.wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro" or loaded is None:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, traced)


def summarise(spans: list[tuple[int, int, str, int, int, int]]) -> dict:
    """Per-layer seconds (:data:`TIME_METRICS`) and, under ``calls``, call counts."""
    by_id = {span[0]: span for span in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for _span_id, parent, _name, start, end, _thread in spans:
        if parent:
            child_ns[parent] += end - start

    def outermost(span) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == span[2]:
                return False
            parent = by_id.get(parent[1])
        return True

    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        span_id, _parent, name, start, end, _thread = span
        calls[name] += 1
        self_ns[name] += (end - start) - child_ns[span_id]
        if outermost(span):
            total_ns[name] += end - start
    metrics = {
        metric: (total_ns if kind == "total" else self_ns)[name] / 1e9
        for metric, (name, kind) in TIME_METRICS.items()
    }
    metrics["calls"] = dict(calls)
    return metrics


def covered_share(spans, root_start_ns: int, root_end_ns: int) -> float:
    """Share of ``[root_start, root_end]`` covered by :data:`CAMPAIGN_TOP_SPANS`."""
    intervals = sorted(
        (max(start, root_start_ns), min(end, root_end_ns))
        for _id, _parent, name, start, end, _thread in spans
        if name in CAMPAIGN_TOP_SPANS and end > root_start_ns and start < root_end_ns
    )
    covered, reach = 0, root_start_ns
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered / max(1, root_end_ns - root_start_ns)
