"""Experiment E9 — scalability in the number of Customer Agents.

The paper's framing is explicitly about "a (large) number of Customer
Agents", but the prototype only demonstrates a handful.  This experiment
sweeps the population size and measures how the negotiation behaves as it
grows: rounds to converge, messages exchanged, wall-clock time per run and
the achieved peak reduction.  Message volume should grow linearly in the
number of customers and rounds should stay roughly flat, which is the
property that makes the announcement-based protocol usable at scale.

Two execution paths are available:

* the faithful **object path** (:class:`~repro.core.session.NegotiationSession`,
  one agent object per household, one message object per delivery), which
  tops out at a few hundred households; and
* the vectorized **fast path** (:class:`~repro.core.fast_session.FastSession`
  over a :class:`~repro.agents.vectorized.VectorizedPopulation`), which
  evaluates every customer's bid decision in batched numpy calls and scales
  to 10,000 households while producing identical negotiation outcomes.

A third path, the **sharded runtime**
(:class:`~repro.core.sharded_session.ShardedSession`), partitions the
vectorized population into per-core shards and fans each round's kernels out
to a thread pool; identical outcomes again, and the sweep extends to 50,000
households to track the multi-core trajectory.

All paths run through the :mod:`repro.api` engine façade with an explicitly
chosen backend (``"object"`` / ``"vectorized"`` / ``"sharded"``), since the
sweep exists to measure the paths against each other.
``run_scalability(fast=True)`` selects the fast path and
``run_scalability(backend="sharded", shards=K)`` the sharded runtime;
:func:`write_benchmark_json` emits the measured trajectories as a
machine-readable artefact (``benchmarks/BENCH_scalability.json``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import api
from repro.agents.sharded import default_shard_count
from repro.analysis.reporting import format_table
from repro.core.results import NegotiationResult
from repro.core.scenario import synthetic_scenario

#: Default sweep of the fast path: two orders of magnitude beyond the object
#: path's practical ceiling.
FAST_PATH_SIZES: tuple[int, ...] = (10, 50, 200, 1000, 5000, 10000)

#: Default sweep of the sharded runtime: from 5k households, where a round's
#: kernel time dwarfs the pool's dispatch cost, to 50k households.
SHARDED_SIZES: tuple[int, ...] = (5000, 10000, 20000, 50000)

#: Human-readable path label per backend (kept stable for the JSON artefact:
#: ``"fast"`` predates the backend names).
_PATH_LABELS = {"object": "object", "vectorized": "fast", "sharded": "sharded"}


@dataclass
class ScalabilityEntry:
    """One population size."""

    num_households: int
    result: NegotiationResult
    wall_seconds: float

    def as_row(self) -> dict[str, float]:
        return {
            "num_households": self.num_households,
            "rounds": self.result.rounds,
            "messages": self.result.messages_sent,
            "messages_per_household": self.result.messages_sent / self.num_households,
            "peak_reduction_fraction": self.result.peak_reduction_fraction,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class ScalabilityResult:
    """The full population-size sweep."""

    entries: list[ScalabilityEntry]
    fast_path: bool = False
    #: Engine backend that carried the sweep ("object"/"vectorized"/"sharded").
    backend: str = ""
    #: Worker count for sharded sweeps (``None`` otherwise).
    shards: Optional[int] = None

    @property
    def path_label(self) -> str:
        """Stable artefact label: "object", "fast" or "sharded"."""
        if self.backend:
            return _PATH_LABELS.get(self.backend, self.backend)
        return "fast" if self.fast_path else "object"

    def rows(self) -> list[dict[str, float]]:
        return [entry.as_row() for entry in self.entries]

    def messages_scale_linearly(self, tolerance: float = 0.5) -> bool:
        """Messages per household should stay within a band as size grows.

        ``tolerance`` is the allowed relative deviation of the per-household
        message count from the smallest population's value (rounds may differ
        by one or two, so some slack is needed).
        """
        if len(self.entries) < 2:
            return True
        reference = self.entries[0].result.messages_sent / self.entries[0].num_households
        for entry in self.entries[1:]:
            per_household = entry.result.messages_sent / entry.num_households
            if reference == 0:
                return per_household == 0
            if abs(per_household - reference) / reference > tolerance:
                return False
        return True

    def rounds_bounded(self, maximum: int = 60) -> bool:
        return all(entry.result.rounds <= maximum for entry in self.entries)

    def render(self) -> str:
        labels = {
            "fast": "fast path (vectorized)",
            "object": "object path",
            "sharded": f"sharded runtime ({self.shards} shards)",
        }
        path = labels.get(self.path_label, self.path_label)
        return format_table(
            self.rows(),
            title=f"E9 — scalability in the number of customers [{path}]",
        )

    def as_json_payload(self) -> dict[str, object]:
        """Machine-readable perf trajectory (for BENCH_scalability.json)."""
        payload: dict[str, object] = {
            "experiment": "E9_scalability",
            "path": self.path_label,
            "sizes": [entry.num_households for entry in self.entries],
            "entries": self.rows(),
        }
        if self.shards is not None:
            payload["shards"] = self.shards
        return payload


def run_scalability(
    sizes: Sequence[int] = (10, 25, 50, 100, 200),
    seed: int = 0,
    max_reward: float = 60.0,
    beta: float = 2.0,
    fast: bool = False,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
) -> ScalabilityResult:
    """Run the reward-table negotiation at increasing population sizes.

    With ``fast=True`` the vectorized :class:`FastSession` carries the sweep
    (required beyond a few hundred households); ``backend`` overrides the
    boolean with an explicit engine backend name (``"sharded"`` runs the
    parallel runtime with ``shards`` workers).  Outcomes are identical across
    backends at equal seeds, only the wall-clock trajectory differs.
    """
    if not sizes:
        raise ValueError("need at least one population size")
    if backend is None:
        backend = "vectorized" if fast else "object"
    if backend == "sharded" and shards is None:
        shards = default_shard_count()
    overrides: dict[str, object] = {}
    if shards is not None:
        overrides["shards"] = shards
    entries = []
    for size in sizes:
        scenario = synthetic_scenario(
            num_households=size, seed=seed, max_reward=max_reward, beta=beta
        )
        start = time.perf_counter()
        result = api.run(scenario, backend=backend, seed=seed, **overrides)
        elapsed = time.perf_counter() - start
        entries.append(
            ScalabilityEntry(num_households=size, result=result, wall_seconds=elapsed)
        )
    return ScalabilityResult(
        entries=entries,
        fast_path=backend == "vectorized",
        backend=backend,
        shards=shards,
    )


def _speedup_at_shared_max(
    reference: ScalabilityResult, contender: ScalabilityResult
) -> Optional[dict[str, float]]:
    """Wall-clock ratio at the largest population both sweeps cover."""
    contender_by_size = {e.num_households: e for e in contender.entries}
    shared = [
        e.num_households
        for e in reference.entries
        if e.num_households in contender_by_size
    ]
    if not shared:
        return None
    size = max(shared)
    reference_entry = next(e for e in reference.entries if e.num_households == size)
    contender_entry = contender_by_size[size]
    if contender_entry.wall_seconds <= 0:
        return None
    return {
        "num_households": size,
        f"{reference.path_label}_wall_seconds": reference_entry.wall_seconds,
        f"{contender.path_label}_wall_seconds": contender_entry.wall_seconds,
        "speedup": reference_entry.wall_seconds / contender_entry.wall_seconds,
    }


def write_benchmark_json(
    path: Union[str, Path],
    fast_result: ScalabilityResult,
    object_result: Optional[ScalabilityResult] = None,
    seed: int = 0,
    sharded_result: Optional[ScalabilityResult] = None,
) -> Path:
    """Write the measured perf trajectories as a machine-readable JSON artefact.

    The payload carries the fast-path sweep (sizes, wall_seconds, messages,
    peak_reduction_fraction per entry), optionally the object-path and
    sharded-runtime sweeps, and — where two sweeps cover a common size — the
    measured speedup at the largest shared population (``speedup_at_shared_max``
    for object vs fast, ``sharded_speedup_at_shared_max`` for fast vs sharded,
    where a value above 1 means the sharded runtime beat the single-core fast
    path).
    """
    payload: dict[str, object] = {
        "experiment": "E9_scalability",
        "seed": seed,
        "fast_path": fast_result.as_json_payload(),
    }
    if sharded_result is not None:
        payload["sharded_path"] = sharded_result.as_json_payload()
        sharded_speedup = _speedup_at_shared_max(fast_result, sharded_result)
        if sharded_speedup is not None:
            payload["sharded_speedup_at_shared_max"] = sharded_speedup
    if object_result is not None:
        payload["object_path"] = object_result.as_json_payload()
        speedup = _speedup_at_shared_max(object_result, fast_result)
        if speedup is not None:
            payload["speedup_at_shared_max"] = speedup
    destination = Path(path)
    destination.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return destination
