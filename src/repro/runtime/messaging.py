"""Typed messages, mailboxes and the message bus.

The paper's agents interact exclusively through communicated information
(announcements, bids, awards), mediated by the DESIRE environment.  The
:class:`MessageBus` plays that mediating role: agents never hold references
to each other, they only know each other's names and exchange
:class:`Message` objects through the bus.  Delivery order is deterministic
(FIFO per sender, senders interleaved in registration order).

Traffic statistics are *streaming*: the bus maintains a total counter and a
per-performative histogram at send time, so :meth:`MessageBus.message_count`
and :meth:`MessageBus.messages_by_performative` are O(1) and never rescan the
log.  For large-population runs the log itself can be bounded
(``max_log_entries``) or disabled outright (``retain_log=False``) without
affecting the counters, and :meth:`MessageBus.broadcast` stamps ids in one
batched pass instead of re-dispatching through :meth:`MessageBus.send` per
receiver.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.desire.errors import UnknownAgentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultInjector


class Performative(Enum):
    """Speech-act classification of messages in the negotiation domain."""

    #: Utility Agent announces an offer / request-for-bids / reward table.
    ANNOUNCE = "announce"
    #: Customer Agent responds with a bid (or yes/no for the offer method).
    BID = "bid"
    #: Utility Agent accepts a bid.
    AWARD = "award"
    #: Utility Agent rejects a bid (or ends the negotiation without award).
    REJECT = "reject"
    #: Negotiation-terminating confirmation.
    CONFIRM = "confirm"
    #: Generic information passing (weather, consumption, production data).
    INFORM = "inform"
    #: Request for information (UA -> Producer Agent, CA -> Resource Consumer).
    REQUEST = "request"
    #: Reply to a REQUEST.
    REPLY = "reply"


@dataclass(frozen=True)
class Message:
    """An immutable message exchanged between two agents.

    Attributes
    ----------
    sender / receiver:
        Agent names as registered on the bus.
    performative:
        Speech act.
    content:
        Arbitrary payload (an :class:`~repro.negotiation.messages.Announcement`,
        a :class:`~repro.negotiation.messages.Bid`, a dict of observations...).
    conversation_id:
        Identifier tying together all messages of one negotiation process.
    round_number:
        Negotiation round the message belongs to (0-based), if applicable.
    message_id:
        Unique id assigned by the bus at send time (``-1`` before sending).
    """

    sender: str
    receiver: str
    performative: Performative
    content: Any = None
    conversation_id: str = ""
    round_number: Optional[int] = None
    message_id: int = field(default=-1, compare=False)

    def with_id(self, message_id: int) -> "Message":
        """Copy of the message carrying its bus-assigned id."""
        return replace(self, message_id=message_id)


class Mailbox:
    """FIFO queue of messages awaiting processing by one agent."""

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._queue: deque[Message] = deque()

    @property
    def owner(self) -> str:
        return self._owner

    def __len__(self) -> int:
        return len(self._queue)

    def deliver(self, message: Message) -> None:
        """Append a message (called by the bus)."""
        if message.receiver != self._owner:
            raise ValueError(
                f"message for {message.receiver!r} delivered to mailbox of {self._owner!r}"
            )
        self._queue.append(message)

    def collect(self) -> list[Message]:
        """Remove and return every pending message, oldest first."""
        messages = list(self._queue)
        self._queue.clear()
        return messages

    def collect_matching(
        self,
        performative: Optional[Performative] = None,
        conversation_id: Optional[str] = None,
    ) -> list[Message]:
        """Remove and return pending messages matching the given filters."""
        matched: list[Message] = []
        remaining: deque[Message] = deque()
        for message in self._queue:
            performative_ok = performative is None or message.performative == performative
            conversation_ok = (
                conversation_id is None or message.conversation_id == conversation_id
            )
            if performative_ok and conversation_ok:
                matched.append(message)
            else:
                remaining.append(message)
        if not matched:
            return matched
        self._queue = remaining
        return matched

    def peek(self) -> Optional[Message]:
        """The oldest pending message without removing it, or ``None``."""
        return self._queue[0] if self._queue else None


class MessageLogView(Sequence):
    """Read-only, zero-copy view over the bus's message log.

    Iteration and indexing go straight to the underlying storage; mutation is
    not offered.  Obtained via :attr:`MessageBus.log`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Union[list[Message], deque]) -> None:
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A bounded log is deque-backed, which does not support slicing
            # (and islice rejects the negative indices of reversed slices);
            # bounded logs are small by construction, so copying is fine.
            if isinstance(self._entries, deque):
                return list(self._entries)[index]
            return self._entries[index]
        return self._entries[index]

    def __iter__(self) -> Iterator[Message]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageLogView({len(self._entries)} messages)"


class MessageBus:
    """Connects named agents and transports messages between them.

    The bus keeps a log of every message sent, which the analysis layer uses
    to reconstruct traces, plus *streaming* per-performative counters that are
    maintained at send time so traffic statistics never rescan the log.

    Parameters
    ----------
    retain_log:
        When ``False`` no messages are retained at all (counters keep
        working); use this for large-population runs where the log would
        dominate memory.
    max_log_entries:
        When set, only the most recent ``max_log_entries`` messages are
        retained (a bounded ring); counters still cover all traffic.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` deciding, from
        its per-round customer masks, whether an announcement or a bid is
        dropped, delayed, left unprocessed by a crashed customer or
        delivered.  ``None`` — and an injector whose message and crash rates
        are zero — leaves the transport untouched.
    """

    def __init__(
        self,
        retain_log: bool = True,
        max_log_entries: Optional[int] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        if max_log_entries is not None and max_log_entries < 0:
            raise ValueError("max_log_entries must be non-negative")
        self._mailboxes: dict[str, Mailbox] = {}
        self._retain_log = retain_log and (max_log_entries is None or max_log_entries > 0)
        self._max_log_entries = max_log_entries
        self._log: Union[list[Message], deque] = (
            [] if max_log_entries is None else deque(maxlen=max_log_entries)
        )
        self._counter = itertools.count()
        self._observers: list[Callable[[Message], None]] = []
        self._total_sent = 0
        self._performative_counts: dict[Performative, int] = {}
        #: Seqlock version for :meth:`counters_snapshot`: odd while a counter
        #: update is in flight, even when the counters are consistent.  The
        #: write side is two integer increments, so the engine hot path pays
        #: nothing measurable for cross-thread snapshot consistency.
        self._counters_version = 0
        self._injector = fault_injector
        #: Delayed messages as ``[rounds_remaining, message]`` pairs, released
        #: by :meth:`release_delayed` once their hold expires.
        self._delayed: list[list] = []

    # -- registration ------------------------------------------------------

    def register(self, name: str) -> Mailbox:
        """Register an agent name and return its mailbox."""
        if not name:
            raise ValueError("agent name must be non-empty")
        if name in self._mailboxes:
            raise ValueError(f"agent {name!r} is already registered on the bus")
        mailbox = Mailbox(name)
        self._mailboxes[name] = mailbox
        return mailbox

    def unregister(self, name: str) -> None:
        """Remove an agent from the bus (pending messages are dropped)."""
        self._mailboxes.pop(name, None)

    def is_registered(self, name: str) -> bool:
        return name in self._mailboxes

    @property
    def agent_names(self) -> list[str]:
        """Registered agent names in registration order."""
        return list(self._mailboxes)

    # -- transport ---------------------------------------------------------

    def send(self, message: Message) -> Message:
        """Deliver a message to the receiver's mailbox.

        Returns the stamped copy of the message (with its assigned id).  With
        a fault injector attached, the message meets the fate
        :meth:`~repro.runtime.faults.FaultInjector.message_fate` gives it: a
        dropped message is silently lost (the sender cannot tell, exactly as
        on a real substrate) and is neither logged nor counted as traffic; a
        delayed or unprocessed one is counted but does not land now.
        """
        if message.receiver not in self._mailboxes:
            raise UnknownAgentError("receiver", message.receiver, len(self._mailboxes))
        if message.sender not in self._mailboxes:
            raise UnknownAgentError("sender", message.sender, len(self._mailboxes))
        stamped = message.with_id(next(self._counter))
        fate = self._fate(stamped)
        if fate == "dropped":
            return stamped
        self._land(stamped, fate, self._mailboxes[message.receiver])
        self._record(stamped)
        return stamped

    def _fate(self, stamped: Message) -> str:
        """The injector's fate for one message (``"delivered"`` without one)."""
        injector = self._injector
        if injector is None or not injector.customer_faults:
            return "delivered"
        return injector.message_fate(stamped)

    def _land(self, stamped: Message, fate: str, mailbox: Mailbox) -> None:
        """Deliver a counted message now, hold it, or (crashed receiver) drop it."""
        if fate == "delivered":
            # The receiver matches the mailbox owner by construction, so the
            # per-message ownership check in Mailbox.deliver is skipped.
            mailbox._queue.append(stamped)
        elif fate == "delayed":
            self._delayed.append([self._injector.plan.message_delay_rounds, stamped])

    def release_delayed(self) -> int:
        """Advance delayed messages one round; deliver the ones now due.

        Called by the simulation at each round boundary.  Returns how many
        messages were released into mailboxes this call.  Messages whose
        receiver unregistered while they were in flight are dropped.
        """
        if not self._delayed:
            return 0
        released = 0
        still_held: list[list] = []
        for entry in self._delayed:
            entry[0] -= 1
            if entry[0] > 0:
                still_held.append(entry)
                continue
            message = entry[1]
            mailbox = self._mailboxes.get(message.receiver)
            if mailbox is not None:
                mailbox.deliver(message)
                released += 1
        self._delayed = still_held
        return released

    def _record(self, stamped: Message) -> None:
        """Streaming bookkeeping for one sent message."""
        self._counters_version += 1
        self._total_sent += 1
        counts = self._performative_counts
        performative = stamped.performative
        counts[performative] = counts.get(performative, 0) + 1
        self._counters_version += 1
        if self._retain_log:
            self._log.append(stamped)
        for observer in self._observers:
            observer(stamped)

    def broadcast(
        self, sender: str, receivers: Iterable[str], performative: Performative,
        content: Any, conversation_id: str = "", round_number: Optional[int] = None,
    ) -> list[Message]:
        """Send the same content to many receivers (one message each).

        The batched path stamps ids directly at construction time — no
        intermediate unstamped message, no per-receiver re-dispatch through
        :meth:`send` — which matters when one announcement fans out to
        thousands of Customer Agents.
        """
        if sender not in self._mailboxes:
            raise UnknownAgentError("sender", sender, len(self._mailboxes))
        mailboxes = self._mailboxes
        counter = self._counter
        # Validate every receiver before delivering anything, so a failed
        # broadcast never leaves partially delivered (and uncounted) messages.
        resolved: list[tuple[str, Mailbox]] = []
        for receiver in receivers:
            try:
                resolved.append((receiver, mailboxes[receiver]))
            except KeyError:
                raise UnknownAgentError(
                    "receiver", receiver, len(self._mailboxes)
                ) from None
        sent: list[Message] = []
        for receiver, mailbox in resolved:
            stamped = Message(
                sender=sender,
                receiver=receiver,
                performative=performative,
                content=content,
                conversation_id=conversation_id,
                round_number=round_number,
                message_id=next(counter),
            )
            fate = self._fate(stamped)
            if fate == "dropped":
                continue
            self._land(stamped, fate, mailbox)
            sent.append(stamped)
        if sent:
            self._counters_version += 1
            self._total_sent += len(sent)
            counts = self._performative_counts
            counts[performative] = counts.get(performative, 0) + len(sent)
            self._counters_version += 1
            if self._retain_log:
                self._log.extend(sent)
            if self._observers:
                for stamped in sent:
                    for observer in self._observers:
                        observer(stamped)
        return sent

    def mailbox(self, name: str) -> Mailbox:
        """The mailbox of a registered agent."""
        try:
            return self._mailboxes[name]
        except KeyError:
            raise UnknownAgentError("agent", name, len(self._mailboxes)) from None

    # -- observation -------------------------------------------------------

    def add_observer(self, observer: Callable[[Message], None]) -> None:
        """Register a callback invoked for every sent message."""
        self._observers.append(observer)

    @property
    def log(self) -> MessageLogView:
        """Read-only view of the retained messages, in send order.

        With ``retain_log=False`` the view is empty; with ``max_log_entries``
        it covers only the most recent messages.  :meth:`message_count` and
        :meth:`messages_by_performative` always cover *all* traffic.
        """
        return MessageLogView(self._log)

    @property
    def retains_log(self) -> bool:
        """Whether sent messages are retained for trace reconstruction."""
        return self._retain_log

    def message_count(self) -> int:
        """Total messages sent so far (streaming counter, O(1))."""
        return self._total_sent

    def messages_by_performative(self) -> dict[Performative, int]:
        """Histogram of message counts per performative.

        Read from the streaming counters maintained at send time — no log
        rescan, and correct even when log retention is bounded or disabled.
        """
        return dict(self._performative_counts)

    def counters_snapshot(self) -> tuple[int, dict[Performative, int]]:
        """A consistent point-in-time copy of the streaming traffic counters.

        Returns ``(total_sent, per_performative_histogram)`` such that the
        total equals the sum of the histogram — even when another thread is
        concurrently sending through the bus.  This is the read side of a
        seqlock: counter updates bump :attr:`_counters_version` to odd before
        mutating and back to even after, and the reader retries until it
        observes one even version across the whole copy.  The engine loop
        stays lock-free; a serving layer streaming round progress from
        another thread uses this instead of racing
        :meth:`message_count` / :meth:`messages_by_performative`.

        Only a verified copy is ever returned.  When a read is torn — the
        version is odd, or moved during the copy — the reader yields the GIL
        before retrying: a writer descheduled mid-update can only finish it
        once it runs again, and spinning without yielding could burn the
        reader's whole switch interval without letting it.
        """
        while True:
            before = self._counters_version
            if not before & 1:
                try:
                    total = self._total_sent
                    counts = dict(self._performative_counts)
                except RuntimeError:
                    # The histogram resized mid-copy; the version moved too.
                    pass
                else:
                    if self._counters_version == before:
                        return total, counts
            time.sleep(0)

    def conversation(self, conversation_id: str) -> list[Message]:
        """All *retained* messages belonging to one conversation, in send order."""
        return [m for m in self._log if m.conversation_id == conversation_id]

    def clear_log(self) -> None:
        """Drop the message log and counters (mailbox contents are untouched)."""
        self._log.clear()
        self._counters_version += 1
        self._total_sent = 0
        self._performative_counts.clear()
        self._counters_version += 1
