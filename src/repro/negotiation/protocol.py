"""The monotonic concession protocol as a checkable state machine.

Rosenschein and Zlotkin's monotonic concession protocol governs the
negotiation (Section 3.1): "during a negotiation process all proposed deals
must be equally or more acceptable to the counter party than all previous
deals proposed.  Agreement is reached when one of the agents proposes a deal
that coincides or exceeds the deal proposed by the other agent."

In the load-management instantiation the Utility Agent's deals are reward
tables (more acceptable to customers = rewards at least as high everywhere)
and a Customer Agent's deals are cut-down commitments (more acceptable to the
utility = a cut-down at least as large).  :class:`MonotonicConcessionProtocol`
enforces both directions and records the full negotiation history, which the
analysis layer and the property-based tests use to verify convergence.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.negotiation.messages import (
    Announcement,
    Bid,
    CutdownBid,
    OfferResponse,
    QuantityBid,
    RewardTableAnnouncement,
)
from repro.negotiation.termination import TerminationReason


class ProtocolViolation(RuntimeError):
    """Raised when a proposed deal breaks the monotonic concession rules."""


class NegotiationOutcome(Enum):
    """Overall outcome classification of a finished negotiation."""

    PEAK_REMOVED = "peak_removed"
    PEAK_REDUCED = "peak_reduced"
    NO_IMPROVEMENT = "no_improvement"
    ONGOING = "ongoing"


#: The bid field each stock bid type carries, and its Python scalar type.
_BID_FIELDS: dict[type, tuple[str, type]] = {
    CutdownBid: ("cutdown", float),
    OfferResponse: ("accept", bool),
    QuantityBid: ("needed_use", float),
}


class ColumnarBids(Mapping):
    """One round's delivered bids stored as a column, materialised lazily.

    Array rounds keep a round's bids as the numpy column the kernels computed
    (cut-downs, offer acceptances or needed uses) plus the round's
    undelivered mask.  This view behaves like the object round's
    ``dict[str, Bid]``: it holds the delivered customers in population order,
    supports lookups, iteration and ``items()``/``values()``/``get()``, and
    compares equal to a plain dict with the same bids.  Each
    :class:`CutdownBid`, :class:`OfferResponse` or :class:`QuantityBid` is
    built only when it is touched.
    """

    __slots__ = (
        "customer_ids", "round_number", "bid_type", "column", "undelivered", "_index",
    )

    def __init__(
        self,
        customer_ids: Sequence[str],
        round_number: int,
        bid_type: type,
        column: np.ndarray,
        undelivered: Optional[np.ndarray] = None,
    ) -> None:
        if bid_type not in _BID_FIELDS:
            raise ValueError(f"no columnar form for bid type {bid_type.__name__}")
        for array in (column, undelivered):
            if array is not None and len(array) != len(customer_ids):
                raise ValueError(
                    f"column length {len(array)} does not match "
                    f"{len(customer_ids)} customers"
                )
        self.customer_ids = customer_ids
        self.round_number = round_number
        self.bid_type = bid_type
        #: The round's bid values by row (population order).
        self.column = column
        #: Rows whose bid never reached the Utility Agent; ``None`` when every
        #: bid was delivered.  Undelivered rows are not part of the mapping.
        self.undelivered = undelivered
        self._index: Optional[dict[str, int]] = None

    def _customer_index(self) -> dict[str, int]:
        """Delivered customer → row, in population order (built once)."""
        if self._index is None:
            ids = self.customer_ids
            if self.undelivered is None:
                self._index = {customer: row for row, customer in enumerate(ids)}
            else:
                rows = np.flatnonzero(~self.undelivered).tolist()
                self._index = {ids[row]: row for row in rows}
        return self._index

    def bid_at(self, row: int) -> Bid:
        """Materialise the bid of the customer at one array position."""
        name, scalar = _BID_FIELDS[self.bid_type]
        return self.bid_type(
            customer=self.customer_ids[row],
            round_number=self.round_number,
            **{name: scalar(self.column[row])},
        )

    def __getitem__(self, customer: str) -> Bid:
        try:
            row = self._customer_index()[customer]
        except KeyError:
            raise KeyError(customer) from None
        return self.bid_at(row)

    def __iter__(self) -> Iterator[str]:
        return iter(self._customer_index())

    def __len__(self) -> int:
        if self.undelivered is None:
            return len(self.customer_ids)
        return len(self.customer_ids) - int(np.count_nonzero(self.undelivered))

    def __contains__(self, customer: object) -> bool:
        return customer in self._customer_index()

    def __repr__(self) -> str:
        return f"ColumnarBids({len(self)} {self.bid_type.__name__} bids)"


@dataclass
class RoundRecord:
    """Everything that happened in one negotiation round."""

    round_number: int
    announcement: Announcement
    #: The delivered bids by customer: an eager ``dict`` on object rounds, a
    #: lazy :class:`ColumnarBids` view on array rounds.  Both honour the same
    #: mapping API and compare equal when their contents do.
    bids: Mapping[str, Bid] = field(default_factory=dict)
    predicted_overuse_before: float = 0.0
    predicted_overuse_after: float = 0.0

    @property
    def participation(self) -> float:
        """Fraction of bids committing to a positive cut-down/response."""
        if not self.bids:
            return 0.0
        positive = 0
        for bid in self.bids.values():
            if isinstance(bid, CutdownBid):
                positive += bid.cutdown > 0
            else:
                positive += getattr(bid, "accept", False) or getattr(bid, "needed_use", 0) > 0
        return positive / len(self.bids)


@dataclass
class NegotiationRecord:
    """Full history of one negotiation process."""

    conversation_id: str
    normal_use: float
    initial_overuse: float
    rounds: list[RoundRecord] = field(default_factory=list)
    termination_reason: TerminationReason = TerminationReason.NOT_TERMINATED
    final_overuse: Optional[float] = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def outcome(self) -> NegotiationOutcome:
        if self.final_overuse is None:
            return NegotiationOutcome.ONGOING
        if self.final_overuse <= 0:
            return NegotiationOutcome.PEAK_REMOVED
        if self.final_overuse < self.initial_overuse:
            return NegotiationOutcome.PEAK_REDUCED
        return NegotiationOutcome.NO_IMPROVEMENT

    @property
    def overuse_trajectory(self) -> list[float]:
        """Predicted overuse after each round (starting from the initial value)."""
        trajectory = [self.initial_overuse]
        trajectory.extend(r.predicted_overuse_after for r in self.rounds)
        return trajectory

    def final_bids(self) -> dict[str, Bid]:
        """The last bid of every customer that ever responded."""
        latest: dict[str, Bid] = {}
        for round_record in self.rounds:
            latest.update(round_record.bids)
        return latest


class MonotonicConcessionProtocol:
    """Validates announcements and bids against the concession rules."""

    def __init__(self, strict: bool = True) -> None:
        #: When True, violations raise :class:`ProtocolViolation`; when False
        #: they are only recorded (useful to *measure* violations in tests of
        #: deliberately broken strategies).
        self.strict = strict
        self.violations: list[str] = []
        self._announcements: list[Announcement] = []
        self._bids_by_customer: dict[str, list[Bid]] = {}

    # -- recording with validation -------------------------------------------

    def record_announcement(self, announcement: Announcement) -> None:
        """Validate and record a new announcement by the Utility Agent."""
        if self._announcements:
            previous = self._announcements[-1]
            self._check_announcement_concession(previous, announcement)
        self._announcements.append(announcement)

    def record_bid(self, bid: Bid) -> None:
        """Validate and record a new bid by one Customer Agent."""
        history = self._bids_by_customer.setdefault(bid.customer, [])
        if history:
            self._check_bid_concession(history[-1], bid)
        history.append(bid)

    # -- queries ----------------------------------------------------------------

    @property
    def announcements(self) -> list[Announcement]:
        return list(self._announcements)

    def bids_of(self, customer: str) -> list[Bid]:
        return list(self._bids_by_customer.get(customer, []))

    def customers_heard_from(self) -> list[str]:
        return list(self._bids_by_customer)

    def agreement_reached(
        self, required_cutdowns: Mapping[str, float]
    ) -> bool:
        """Whether the customers' latest bids meet or exceed the required cut-downs.

        This is the "coincides or exceeds" agreement criterion, evaluated
        against the per-customer cut-down levels the Utility Agent needs.
        """
        for customer, required in required_cutdowns.items():
            history = self._bids_by_customer.get(customer)
            if not history:
                return False
            latest = history[-1]
            if not isinstance(latest, CutdownBid) or latest.cutdown < required:
                return False
        return True

    # -- rule checks ---------------------------------------------------------------

    def _record_violation(self, description: str) -> None:
        self.violations.append(description)
        if self.strict:
            raise ProtocolViolation(description)

    def _check_announcement_concession(
        self, previous: Announcement, current: Announcement
    ) -> None:
        if current.round_number <= previous.round_number:
            self._record_violation(
                f"announcement round number did not advance "
                f"({previous.round_number} -> {current.round_number})"
            )
        if isinstance(previous, RewardTableAnnouncement) and isinstance(
            current, RewardTableAnnouncement
        ):
            if not current.table.at_least_as_generous_as(previous.table):
                self._record_violation(
                    f"reward table announced in round {current.round_number} is less "
                    f"generous than the round {previous.round_number} table"
                )

    def _check_bid_concession(self, previous: Bid, current: Bid) -> None:
        if isinstance(previous, CutdownBid) and isinstance(current, CutdownBid):
            if current.cutdown < previous.cutdown:
                self._record_violation(
                    f"customer {current.customer!r} retreated from cut-down "
                    f"{previous.cutdown} to {current.cutdown}"
                )
