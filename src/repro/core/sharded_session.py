"""The sharded negotiation runtime: parallel population slices per round.

:class:`ShardedSession` runs the same negotiation as
:class:`~repro.core.fast_session.FastSession` — same announcement methods,
same monotonic concession protocol, same termination — but partitions the
:class:`~repro.agents.vectorized.VectorizedPopulation` into K contiguous
shards (:class:`~repro.agents.sharded.ShardedPopulation`) and fans each
round's customer-side kernels (``highest_acceptable_cutdowns``,
``expected_gain_cutdowns``, ``step_quantity_bids``, ``offer_acceptances``,
the interpolation and surplus kernels) out to a
:class:`concurrent.futures.ThreadPoolExecutor`, one worker per shard.

**Equivalence contract.**  The kernels are per-customer, so sharding by index
range and concatenating in shard order reproduces the unsharded arrays bit
for bit.  The utility side of each round — the global overuse estimate above
all — is reduced by the *same* :class:`~repro.negotiation.methods.base.
NegotiationMethod` object over the merged bids, i.e. the identical Section 6
code path the object and vectorized sessions use; for a fixed seed all three
backends return the same :class:`~repro.core.results.NegotiationResult`.
Between rounds the session additionally reconciles shard-local partial sums
of ``predicted_use_with_cutdown`` (exactly-rounded, via :func:`math.fsum`)
into a diagnostic overuse estimate; :meth:`reconciled_overuses` exposes the
trajectory so monitoring (and the test suite) can confirm the shards agree
with the authoritative estimate.

Threads rather than processes: the kernels are numpy-bound and release the
GIL, so a thread pool scales with cores without serialising 50k-household
arrays every round.  On a one-core host the pool degrades gracefully — same
results, a few percent of fan-out overhead — which is why ``backend="auto"``
only selects this runtime when multiple workers are actually available.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.agents.sharded import ShardedPopulation, default_shard_count
from repro.core.fast_session import FastSession
from repro.core.modes import DEFAULT_ROUNDS_MODE, validate_shard_count
from repro.core.results import NegotiationResult
from repro.core.scenario import Scenario
from repro.runtime.faults import FaultPlan


class ShardedSession(FastSession):
    """Drop-in for :class:`FastSession` running K population shards in parallel.

    Parameters
    ----------
    scenario / seed / max_simulation_rounds / check_protocol:
        As in :class:`FastSession`.
    shards:
        Number of population shards (and pool workers).  ``None`` means one
        shard per CPU core (:func:`~repro.agents.sharded.default_shard_count`);
        the count is clamped to the population size at build time.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = 0,
        max_simulation_rounds: int = 200,
        check_protocol: bool = True,
        retain_round_bids: bool = True,
        shards: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        rounds: str = DEFAULT_ROUNDS_MODE,
    ) -> None:
        super().__init__(
            scenario,
            seed=seed,
            max_simulation_rounds=max_simulation_rounds,
            check_protocol=check_protocol,
            retain_round_bids=retain_round_bids,
            fault_plan=fault_plan,
            rounds=rounds,
        )
        validated = validate_shard_count(shards)
        self.requested_shards = (
            default_shard_count() if validated is None else validated
        )
        self.sharded: Optional[ShardedPopulation] = None
        #: Per responded round, the committed cut-down vector (reward-table
        #: rounds only; other methods have no cut-down vector).  Kept as
        #: references — each round's kernel produces a fresh array — so the
        #: shard-local reductions can be computed lazily, off the hot path.
        self._round_cutdowns: list[np.ndarray] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._last_outcomes: Optional[dict] = None

    # -- construction ------------------------------------------------------------

    def build(self) -> ShardedPopulation:
        """Build the vectorized population and wrap it in shards (idempotent)."""
        if self.population is not None:
            return self.population
        base = super().build()
        self.sharded = ShardedPopulation(base, self.requested_shards)
        self.population = self.sharded
        return self.population

    @property
    def num_shards(self) -> int:
        """Effective shard count (after clamping to the population size)."""
        return self.build().num_shards

    # -- execution -----------------------------------------------------------------

    def run(self) -> NegotiationResult:
        """Run the negotiation with a per-shard worker pool around the rounds."""
        sharded = self.build()
        if self.fault_injector is not None:
            sharded.attach_fault_injector(self.fault_injector)
        if sharded.num_shards > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=sharded.num_shards,
                thread_name_prefix="negotiation-shard",
            )
            sharded.attach_executor(self._executor)
        try:
            return super().run()
        finally:
            sharded.attach_executor(None)
            sharded.attach_fault_injector(None)
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def _respond_all(
        self, announcement, state: dict, suppressed=None, materialise: bool = True
    ) -> Optional[list]:
        """Fan the round's kernels out, keeping the cut-down vector for later."""
        bids = super()._respond_all(
            announcement, state, suppressed=suppressed, materialise=materialise
        )
        cutdowns = state.get("cutdowns")
        if cutdowns is not None:
            self._round_cutdowns.append(cutdowns)
        return bids

    # -- reconciliation diagnostics ---------------------------------------------

    def round_use_partials(self) -> list[np.ndarray]:
        """Per evaluated round, the per-shard partial use sums (lazy).

        One entry per entry of ``record.rounds``: a final bid exchange cut
        short by ``max_simulation_rounds`` is never evaluated into a round
        record, so its cut-down vector is dropped here too.  The reductions
        are computed on demand — the negotiation hot path only keeps the
        cut-down vectors, it never pays for the diagnostics.
        """
        if self.record is None:
            raise RuntimeError("run() the session before reconciling overuse")
        evaluated = self._round_cutdowns[: len(self.record.rounds)]
        return [self.sharded.shard_use_partials(cutdowns) for cutdowns in evaluated]

    def reconciled_overuses(self) -> list[float]:
        """Per-round overuse estimates reduced from the shard partial sums.

        ``fsum(shard partials) - normal_use`` per evaluated reward-table
        round, aligned one-to-one with ``record.rounds``; agrees with the
        authoritative per-round estimate there to floating-point summation
        accuracy (the authoritative one is computed by the shared method
        object, which is what bit-identity is pinned to).
        """
        context = self._context
        if context is None:
            raise RuntimeError("run() the session before reconciling overuse")
        return [
            math.fsum(partials) - context.normal_use
            for partials in self.round_use_partials()
        ]

    def shard_outcome_stats(self) -> list[dict[str, float]]:
        """Per-shard end-of-run aggregates (customers, acceptances, sums).

        Derived from the global result by index range, so it is pure
        observability: ``sum`` of any column over shards equals the global
        figure exactly as reported in the :class:`NegotiationResult`.
        """
        if self._last_outcomes is None:
            raise RuntimeError("run() the session before collecting shard stats")
        stats: list[dict[str, float]] = []
        outcomes = list(self._last_outcomes.values())
        for shard_index, (start, stop) in enumerate(self.sharded.bounds):
            rows = outcomes[start:stop]
            stats.append(
                {
                    "shard": shard_index,
                    "customers": stop - start,
                    "accepted": sum(1 for o in rows if o.awarded),
                    "committed_cutdown_sum": sum(o.committed_cutdown for o in rows),
                    "reward_sum": sum(o.reward for o in rows),
                    "surplus_sum": sum(o.surplus for o in rows),
                }
            )
        return stats

    def shard_recoveries(self) -> list[dict[str, object]]:
        """Recovered shard-kernel failures, part of reconciliation diagnostics.

        One record per recovery — which kernel call, which shard and index
        range, and whether the inline retry or the per-customer oracle
        decomposition produced the rows.  Empty on fault-free runs; whenever
        recovery succeeds the results are bit-identical either way.
        """
        if self.sharded is None:
            raise RuntimeError("build() the session before reading recoveries")
        return list(self.sharded.recovery_events)

    def _collect_result(self, awards, final_bids, simulation_rounds):
        result = super()._collect_result(awards, final_bids, simulation_rounds)
        self._last_outcomes = result.customer_outcomes
        if self.fault_injector is not None and self.sharded is not None:
            faults = result.metadata.setdefault("faults", {})
            faults["shard_recoveries"] = list(self.sharded.recovery_events)
        return result
