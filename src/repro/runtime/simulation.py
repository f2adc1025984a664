"""Top-level simulation driver.

A :class:`Simulation` wires together a scheduler, a message bus and a set of
*steppable* participants (anything exposing ``name`` and ``step(simulation)``)
and advances them in synchronous rounds.  The negotiation experiments in the
paper proceed in rounds (announcement -> bids -> evaluation), so a
round-synchronous driver mirrors the original prototype's control regime while
the underlying event queue still allows finer-grained scheduling when needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, runtime_checkable

from repro.runtime.clock import SimulationClock
from repro.runtime.events import EventType
from repro.runtime.faults import FaultInjector
from repro.runtime.messaging import MessageBus
from repro.runtime.rng import RandomSource
from repro.runtime.scheduler import Scheduler


class SimulationError(RuntimeError):
    """Raised when the simulation is driven in an inconsistent way."""


@runtime_checkable
class Steppable(Protocol):
    """Anything that can participate in a simulation round."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol definition
        ...

    def step(self, simulation: "Simulation") -> None:  # pragma: no cover
        ...


@dataclass
class SimulationReport:
    """Summary statistics of a finished simulation run."""

    rounds_executed: int = 0
    events_dispatched: int = 0
    messages_sent: int = 0
    participants: list[str] = field(default_factory=list)
    stop_reason: str = "completed"

    def as_dict(self) -> dict[str, object]:
        return {
            "rounds_executed": self.rounds_executed,
            "events_dispatched": self.events_dispatched,
            "messages_sent": self.messages_sent,
            "participants": list(self.participants),
            "stop_reason": self.stop_reason,
        }


class Simulation:
    """Round-synchronous multi-agent simulation.

    Parameters
    ----------
    seed:
        Root seed for all stochastic components.
    max_rounds:
        Safety bound on the number of rounds :meth:`run` will execute.
    retain_message_log:
        Forwarded to :class:`~repro.runtime.messaging.MessageBus`; disable for
        large populations where retaining every message would dominate memory
        (traffic counters keep working).
    max_log_entries:
        Forwarded to :class:`~repro.runtime.messaging.MessageBus`; bounds log
        retention to the most recent messages.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`, handed to the
        bus.  The bus applies its per-round customer masks to announcements
        and bids (lost, delayed, or unprocessed by a crashed customer); the
        simulation only releases delayed messages at each round boundary.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        max_rounds: int = 10_000,
        retain_message_log: bool = True,
        max_log_entries: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        self.random = RandomSource(seed, name="simulation")
        self.clock = SimulationClock()
        self.scheduler = Scheduler(self.clock)
        self.bus = MessageBus(
            retain_log=retain_message_log,
            max_log_entries=max_log_entries,
            fault_injector=fault_injector,
        )
        self.max_rounds = max_rounds
        self._participants: dict[str, Steppable] = {}
        self._round = 0
        self._finished = False
        self._stop_requested = False
        self._stop_reason = "completed"

    # -- participants -------------------------------------------------------

    def add_participant(self, participant: Steppable) -> None:
        """Register a participant and its mailbox on the bus."""
        name = participant.name
        if name in self._participants:
            raise SimulationError(f"participant {name!r} already added")
        self._participants[name] = participant
        if not self.bus.is_registered(name):
            self.bus.register(name)

    def add_participants(self, participants: Iterable[Steppable]) -> None:
        for participant in participants:
            self.add_participant(participant)

    def participant(self, name: str) -> Steppable:
        try:
            return self._participants[name]
        except KeyError:
            raise SimulationError(f"no participant named {name!r}") from None

    @property
    def participant_names(self) -> list[str]:
        return list(self._participants)

    # -- control ------------------------------------------------------------

    @property
    def round_number(self) -> int:
        """Index of the round currently being executed (0-based)."""
        return self._round

    @property
    def finished(self) -> bool:
        return self._finished

    def request_stop(self, reason: str = "stopped by participant") -> None:
        """Ask the driver to stop after the current round completes."""
        self._stop_requested = True
        self._stop_reason = reason

    def step_round(self) -> None:
        """Execute one synchronous round: every participant steps once.

        Participants step in registration order, which (together with the
        deterministic bus) keeps whole runs reproducible.
        """
        if self._finished:
            raise SimulationError("simulation already finished; create a new one")
        if not self._participants:
            raise SimulationError("cannot step a simulation with no participants")
        self.scheduler.schedule_at(
            self.clock.now, EventType.ROUND_BOUNDARY, payload=self._round
        )
        self.scheduler.run(until=self.clock.now)
        # Delayed messages land at the round boundary, before anyone steps —
        # indistinguishable from a slow but successful delivery.
        self.bus.release_delayed()
        for participant in self._participants.values():
            participant.step(self)
        self._round += 1
        self.clock.advance_by(1.0)

    def run(
        self,
        rounds: Optional[int] = None,
        stop_when: Optional[callable] = None,
    ) -> SimulationReport:
        """Run until a round budget, a stop condition or ``max_rounds``.

        Parameters
        ----------
        rounds:
            Number of rounds to execute in this call (default: up to
            ``max_rounds``).
        stop_when:
            Callable evaluated *after* each round; the run ends when it
            returns ``True``.
        """
        budget = rounds if rounds is not None else self.max_rounds
        if budget <= 0:
            raise ValueError(f"rounds must be positive, got {budget}")
        executed = 0
        while executed < budget:
            if self._round >= self.max_rounds:
                self._stop_reason = "max_rounds reached"
                break
            self.step_round()
            executed += 1
            if self._stop_requested:
                break
            if stop_when is not None and stop_when():
                self._stop_reason = "stop condition satisfied"
                break
        else:
            self._stop_reason = "round budget exhausted"
        self._finished = True
        return SimulationReport(
            rounds_executed=executed,
            events_dispatched=self.scheduler.dispatched_count,
            messages_sent=self.bus.message_count(),
            participants=self.participant_names,
            stop_reason=self._stop_reason,
        )
