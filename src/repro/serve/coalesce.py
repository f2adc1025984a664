"""Request coalescing: many negotiations, one combined kernel arena.

The serving layer's throughput trick.  A batch of compatible requests is
packed into **one** combined :class:`~repro.agents.vectorized.VectorizedPopulation`
(via :meth:`~repro.agents.vectorized.VectorizedPopulation.concatenate`) and the
member sessions are driven through their round state machines in lockstep —
each on a zero-copy row :meth:`~repro.agents.vectorized.VectorizedPopulation.slice`
of the shared arena.  When every member of a cycle announces the *same*
reward table under the same bidding policy, the cut-down kernel runs **once**
over the whole arena and each member consumes its row slice (a *fused* cycle);
otherwise each member's slice runs its own kernel call.  Either way the
arithmetic is per-row, so every member's result is bit-identical to a solo
``repro.api.run`` of the same request — the determinism contract pinned by
``tests/test_serve_coalesce.py``.

Fault injection coalesces too: each member keeps its *own*
:class:`~repro.runtime.faults.FaultInjector`, whose per-round masks are keyed
purely on ``(plan seed, stream, round)`` — order-independent, so lockstep
execution replays exactly the draws a solo run would make.

Everything here is synchronous and asyncio-free; the server's
:class:`~repro.serve.batcher.CoalescingBatcher` calls it from worker threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.agents.vectorized import VectorizedPopulation
from repro.api.engine import _fast_path_qualifies, run as _engine_run
from repro.core.fast_session import FastSession
from repro.core.scenario import Scenario
from repro.core.session import NegotiationSession
from repro.negotiation.messages import RewardTableAnnouncement
from repro.negotiation.strategy import (
    ExpectedGainBidding,
    HighestAcceptableCutdownBidding,
)
from repro.serve.schemas import ServeRequest, result_payload

#: Progress callback: ``(request_index, event_dict)``.  Events are JSON-safe.
ProgressCallback = Callable[[int, dict[str, Any]], None]


def request_coalesces(request: ServeRequest) -> bool:
    """Whether a request is a candidate for the coalesced vectorized path.

    Decided on the *request spec* (before the scenario is built, so the
    submit handler can route cheaply): the request must not pin a
    non-vectorized backend and must not need the full agent society.  The
    batch executor re-checks :func:`repro.api.engine._fast_path_qualifies`
    on the built scenario and demotes to solo on disagreement, so this
    predicate only has to be *sound for routing*, never load-bearing for
    correctness.
    """
    return (
        request.backend in ("auto", "vectorized")
        and not request.config.needs_full_agent_society
    )


class _CoalescedMemberSession(FastSession):
    """A FastSession whose reward-table kernel can be fed by the coordinator.

    When the lockstep coordinator has already evaluated the cut-down kernel
    over the combined arena (a fused cycle), it deposits this member's row
    slice in ``_injected_candidates``; the next :meth:`_cutdown_candidates`
    call consumes it instead of re-running the kernel on the member's slice.
    The injected rows are exactly what the slice kernel would compute (the
    kernels are per-row), so injection is a pure de-duplication.
    """

    _injected_candidates = None

    def _cutdown_candidates(self, announcement):
        injected = self._injected_candidates
        if injected is not None:
            self._injected_candidates = None
            return injected
        return super()._cutdown_candidates(announcement)


@dataclass
class _Member:
    index: int
    request: ServeRequest
    session: _CoalescedMemberSession
    row_start: int = 0
    row_stop: int = 0
    #: Absolute epoch deadline (``time.time`` scale) or ``None``.
    deadline: Optional[float] = None


@dataclass
class BatchReport:
    """Execution accounting of one :func:`execute_batch` call."""

    #: Requests that ran coalesced on the shared arena (batch occupancy).
    coalesced: int = 0
    #: Requests demoted to a solo engine run (built scenario did not qualify).
    solo: int = 0
    #: Lockstep negotiation cycles driven over the arena.
    cycles: int = 0
    #: Cycles whose cut-down kernel ran once over the whole arena.
    fused_cycles: int = 0
    #: Total arena rows (sum of member population sizes).
    arena_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "coalesced": self.coalesced,
            "solo": self.solo,
            "cycles": self.cycles,
            "fused_cycles": self.fused_cycles,
            "arena_rows": self.arena_rows,
        }


@dataclass
class BatchOutcome:
    """Per-request outcome: a result payload or an error message.

    ``expired`` marks a member terminated because its ``deadline_ms`` budget
    ran out (the error message carries the partial progress); the session
    record lands in the ``expired`` terminal state rather than ``failed``.
    """

    payload: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    expired: bool = False
    events: list = field(default_factory=list)


def _expire(outcome: BatchOutcome, rounds_completed: int) -> None:
    """Terminate one member's outcome with a partial-progress deadline error."""
    outcome.expired = True
    outcome.error = (
        f"deadline_exceeded: latency budget ran out after "
        f"{rounds_completed} negotiation round(s)"
    )


def _emit(
    progress: Optional[ProgressCallback],
    outcome: BatchOutcome,
    index: int,
    event: dict[str, Any],
) -> None:
    outcome.events.append(event)
    if progress is not None:
        progress(index, event)


def _fuse_key(member: _Member):
    """The fusion-compatibility key of a member's pending announcement.

    Two members fuse when they run the same batched bidding policy over the
    *same* reward table (same entries, same round).  ``None`` marks a member
    whose cycle cannot fuse (non-reward-table method, scalar policy
    fallback).
    """
    announcement = member.session.pending_announcement
    if not isinstance(announcement, RewardTableAnnouncement):
        return None
    policy_type = type(member.session.scenario.method.bidding_policy)
    if policy_type not in (HighestAcceptableCutdownBidding, ExpectedGainBidding):
        return None
    return (
        policy_type.__name__,
        announcement.round_number,
        tuple(sorted(announcement.table.entries.items())),
    )


def run_solo(
    request: ServeRequest,
    population_cache: Optional[dict] = None,
    progress: Optional[ProgressCallback] = None,
    index: int = 0,
    deadline: Optional[float] = None,
) -> BatchOutcome:
    """Run one request outside the coalescer, on the backend it pinned.

    The object path streams per-round progress straight off the message
    bus's thread-safe :meth:`~repro.runtime.messaging.MessageBus
    .counters_snapshot` (evaluated between simulation rounds); the other solo
    backends report progress only at completion.  A request whose absolute
    ``deadline`` has already passed fails fast with a ``deadline_exceeded``
    outcome instead of starting the negotiation (solo runs are
    run-to-completion once started; the batch watchdog covers the stuck
    case).
    """
    outcome = BatchOutcome()
    if deadline is not None and time.time() > deadline:
        _expire(outcome, 0)
        return outcome
    try:
        scenario = request.scenario.build_scenario(population_cache)
        config = request.config
        if request.backend == "object" or (
            request.backend == "auto" and config.needs_full_agent_society
        ):
            session = NegotiationSession(scenario, **config.session_kwargs())
            simulation = session.build()
            utility = session.utility_agent

            def _observe() -> bool:
                total, _counts = simulation.bus.counters_snapshot()
                _emit(progress, outcome, index, {
                    "event": "round",
                    "round": len(utility.record.rounds),
                    "messages_sent": total,
                })
                return utility.finished

            report = simulation.run(stop_when=_observe)
            result = session._collect_result(report.rounds_executed)
            result.metadata["backend"] = "object"
        else:
            result = _engine_run(scenario, backend=request.backend, config=config)
        outcome.payload = result_payload(result)
    except Exception as error:  # surfaced as the request's failure state
        outcome.error = f"{type(error).__name__}: {error}"
    return outcome


def execute_batch(
    requests: list[ServeRequest],
    population_cache: Optional[dict] = None,
    progress: Optional[ProgressCallback] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
) -> tuple[list[BatchOutcome], BatchReport]:
    """Run a batch of compatible requests as one coalesced kernel pass.

    Builds every member's scenario, concatenates the vectorized populations
    into a shared arena, installs a zero-copy row slice into each member's
    session and drives all sessions through their round state machines in
    lockstep.  Members whose built scenario turns out not to qualify for the
    fast path — or whose populations cannot share an arena (requirement-grid
    mismatch) — are demoted to :func:`run_solo` rather than rejected.

    ``deadlines`` (absolute ``time.time`` epochs, one per request, ``None``
    for no budget) propagates each member's latency budget into the lockstep
    drive: a member whose deadline has already passed never starts (fail-fast
    ``deadline_exceeded``), and one that runs out mid-negotiation is
    terminated between rounds with its partial progress recorded while the
    rest of the batch keeps negotiating — one slow member never stalls its
    batch-mates.  Terminating a member does not perturb the others: every
    kernel is per-row, so the survivors' arithmetic is unchanged.

    Returns one :class:`BatchOutcome` per request (same order) plus the
    :class:`BatchReport` accounting used by the ``/metrics`` endpoint and the
    serving benchmark.
    """
    report = BatchReport()
    outcomes = [BatchOutcome() for _ in requests]
    deadline_list: list[Optional[float]] = (
        list(deadlines) if deadlines is not None else [None] * len(requests)
    )
    members: list[_Member] = []
    solo_indices: list[int] = []
    for index, request in enumerate(requests):
        deadline = deadline_list[index]
        if deadline is not None and time.time() > deadline:
            _expire(outcomes[index], 0)
            continue
        try:
            scenario = request.scenario.build_scenario(population_cache)
            qualifies, _reason = _fast_path_qualifies(scenario, request.config)
            if not (request_coalesces(request) and qualifies):
                solo_indices.append(index)
                continue
            session = _CoalescedMemberSession(
                scenario, **request.config.fast_session_kwargs()
            )
            members.append(
                _Member(
                    index=index, request=request, session=session, deadline=deadline
                )
            )
        except Exception as error:
            outcomes[index].error = f"{type(error).__name__}: {error}"

    # -- arena assembly ---------------------------------------------------------
    if members:
        parts = [
            VectorizedPopulation.from_population(member.session.scenario.population)
            for member in members
        ]
        try:
            arena = VectorizedPopulation.concatenate(parts) if len(parts) > 1 else None
        except ValueError:
            # Requirement grids differ across members: no shared arena, each
            # member runs on its privately packed population (still lockstep,
            # still bit-identical — just no fused kernel cycles).
            arena = None
        offset = 0
        for member, part in zip(members, parts):
            rows = len(part)
            member.row_start, member.row_stop = offset, offset + rows
            member.session._install_population(
                arena.slice(offset, offset + rows) if arena is not None else part
            )
            offset += rows
        report.arena_rows = offset
        report.coalesced = len(members)

        # -- lockstep drive -----------------------------------------------------
        active: list[_Member] = []
        for member in members:
            try:
                member.session.start()
            except Exception as error:
                outcomes[member.index].error = f"{type(error).__name__}: {error}"
                continue
            if member.session.phase == "done":
                # Initial overuse already acceptable: done before any round.
                result = member.session.result
                result.metadata["backend"] = "vectorized"
                outcomes[member.index].payload = result_payload(result)
            else:
                active.append(member)
        while active:
            exchanging = [m for m in active if m.session.phase == "exchange"]
            if arena is not None and len(exchanging) > 1:
                keys = {_fuse_key(member) for member in exchanging}
                if len(keys) == 1 and None not in keys:
                    # Fused cycle: one kernel call over the whole arena, each
                    # member consumes its row slice.
                    announcement = exchanging[0].session.pending_announcement
                    policy_type = type(
                        exchanging[0].session.scenario.method.bidding_policy
                    )
                    if policy_type is HighestAcceptableCutdownBidding:
                        fused = arena.highest_acceptable_cutdowns(announcement.table)
                    else:
                        fused = arena.expected_gain_cutdowns(announcement.table)
                    for member in exchanging:
                        member.session._injected_candidates = fused[
                            member.row_start : member.row_stop
                        ]
                    report.fused_cycles += 1
            still_active: list[_Member] = []
            for member in active:
                if member.deadline is not None and time.time() > member.deadline:
                    # Budget ran out between rounds: terminate this member
                    # with partial progress; its batch-mates keep going.
                    _expire(
                        outcomes[member.index], member.session.rounds_completed()
                    )
                    continue
                try:
                    if member.session.phase == "exchange":
                        member.session.step_exchange()
                    if member.session.phase == "advance":
                        member.session.step_advance()
                except Exception as error:
                    outcomes[member.index].error = f"{type(error).__name__}: {error}"
                    continue
                session = member.session
                if session.phase == "done":
                    outcome = outcomes[member.index]
                    result = session.result
                    result.metadata["backend"] = "vectorized"
                    outcome.payload = result_payload(result)
                else:
                    _emit(progress, outcomes[member.index], member.index, {
                        "event": "round",
                        "round": session.rounds_completed(),
                        "messages_sent": session.message_count(),
                    })
                    still_active.append(member)
            active = still_active
            report.cycles += 1

    # -- solo stragglers --------------------------------------------------------
    for index in solo_indices:
        outcomes[index] = run_solo(
            requests[index],
            population_cache,
            progress=progress,
            index=index,
            deadline=deadline_list[index],
        )
        report.solo += 1
    return outcomes, report
