"""Common interface of the three announcement methods.

A :class:`NegotiationMethod` is a *mechanism*: it defines what the Utility
Agent announces, how Customer Agents may respond, how responses are folded
into a new prediction and when the process stops.  The agents in
:mod:`repro.agents` delegate their cooperation-management decisions to a
method object, so switching between the offer, request-for-bids and
reward-tables mechanisms is a one-line configuration change — which is
exactly the flexibility Section 3.2.4 argues for ("allow agents to use all
three methods ... as different strategies").
"""

from __future__ import annotations

import abc
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.negotiation.messages import Announcement, Bid
from repro.negotiation.reward_table import CutdownRewardRequirements
from repro.negotiation.termination import TerminationReason
from repro.runtime.clock import TimeInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.vectorized import VectorizedPopulation


class CustomerColumn(Mapping):
    """A read-only customer → value mapping over two aligned sequences.

    The column-backed form of a per-customer map such as
    :attr:`UtilityContext.predicted_uses`: a lazy population hands over its
    shared id list and a use column instead of building an N-entry dict
    every day.  Iteration, ``len``, ``keys()``, ``values()`` and ``items()``
    walk the columns in population order — the order ``dict(zip(ids,
    column))`` has — without any per-customer work up front; the id → row
    index behind ``[]``, ``get`` and ``in`` is built on the first key
    lookup, as :class:`~repro.negotiation.protocol.ColumnarBids` does.
    Customer ids are unique within a population, so the view compares equal
    to that dict.
    """

    __slots__ = ("customer_ids", "column", "_index")

    def __init__(self, customer_ids: Sequence[str], column: Sequence[float]) -> None:
        if len(column) != len(customer_ids):
            raise ValueError(
                f"column length {len(column)} does not match "
                f"{len(customer_ids)} customers"
            )
        self.customer_ids = customer_ids
        self.column = column
        self._index: Optional[dict[str, int]] = None

    def _customer_index(self) -> dict[str, int]:
        """Customer → row, in population order (built once)."""
        if self._index is None:
            self._index = {customer: row for row, customer in enumerate(self.customer_ids)}
        return self._index

    def __getitem__(self, customer: str) -> float:
        try:
            row = self._customer_index()[customer]
        except KeyError:
            raise KeyError(customer) from None
        return self.column[row]

    def __iter__(self) -> Iterator[str]:
        return iter(self.customer_ids)

    def __len__(self) -> int:
        return len(self.customer_ids)

    def values(self) -> ValuesView:
        return _ColumnValues(self)

    def items(self) -> ItemsView:
        return _ColumnItems(self)

    def __repr__(self) -> str:
        return f"CustomerColumn({len(self)} customers)"


class _ColumnValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.column)


class _ColumnItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping.customer_ids, self._mapping.column)


def _same_customers(first: Mapping[str, float], second: Mapping[str, float]) -> bool:
    """Whether two per-customer maps cover the same customers.

    Two column views over one id list agree by construction; anything else
    compares key sets.
    """
    if (
        isinstance(first, CustomerColumn)
        and isinstance(second, CustomerColumn)
        and first.customer_ids is second.customer_ids
    ):
        return True
    return set(first) == set(second)


@dataclass
class UtilityContext:
    """Everything the Utility Agent knows when driving a negotiation.

    Attributes
    ----------
    normal_use:
        Capacity servable at normal production cost during the peak interval
        (the paper's ``normal_use``).
    predicted_uses:
        Per-customer predicted consumption in the peak interval (a dict, or a
        :class:`CustomerColumn` view from a lazy population).
    allowed_uses:
        Per-customer allowed (baseline) consumption in the peak interval.
    interval:
        The peak interval being negotiated about.
    max_allowed_overuse:
        The largest predicted overuse the Utility Agent tolerates without
        further negotiation (absolute, same unit as ``normal_use``).

    The maps are read, never written: :attr:`total_predicted_use` is summed
    once, at construction.
    """

    normal_use: float
    predicted_uses: Mapping[str, float]
    allowed_uses: Mapping[str, float]
    interval: Optional[TimeInterval] = None
    max_allowed_overuse: float = 0.0

    def __post_init__(self) -> None:
        if self.normal_use <= 0:
            raise ValueError("normal use must be positive")
        if not _same_customers(self.predicted_uses, self.allowed_uses):
            raise ValueError("predicted and allowed uses must cover the same customers")
        if self.max_allowed_overuse < 0:
            raise ValueError("max allowed overuse must be non-negative")
        # Left to right over the values in map order: the same additions
        # sum(dict.values()) makes, so a column view and a dict agree bit
        # for bit.
        self._total_predicted_use = sum(self.predicted_uses.values())

    @property
    def customers(self) -> list[str]:
        return list(self.predicted_uses)

    @property
    def total_predicted_use(self) -> float:
        return self._total_predicted_use

    @property
    def initial_overuse(self) -> float:
        return self.total_predicted_use - self.normal_use

    @property
    def initial_relative_overuse(self) -> float:
        return self.initial_overuse / self.normal_use


@dataclass
class CustomerContext:
    """Everything one Customer Agent knows when responding to announcements."""

    customer: str
    predicted_use: float
    allowed_use: float
    requirements: CutdownRewardRequirements

    def __post_init__(self) -> None:
        if self.predicted_use < 0:
            raise ValueError("predicted use must be non-negative")
        if self.allowed_use < 0:
            raise ValueError("allowed use must be non-negative")


@dataclass
class RoundEvaluation:
    """The Utility Agent's evaluation of the responses of one round."""

    predicted_overuse: float
    relative_overuse: float
    termination: Optional[TerminationReason] = None
    accepted_customers: dict[str, bool] = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.termination is not None


@dataclass
class ArrayRoundEvaluation(RoundEvaluation):
    """A round evaluation whose acceptance decision is a boolean mask.

    The ``rounds="array"`` fast path never builds the per-customer
    ``accepted_customers`` dict; acceptance lives in ``accepted_mask``
    (population order).  The scalar fields carry exactly the doubles the
    dict-based :meth:`NegotiationMethod.evaluate_round` would compute, so
    :meth:`NegotiationMethod.next_announcement` consumes either evaluation
    interchangeably.
    """

    accepted_mask: Optional[np.ndarray] = None


class NegotiationMethod(abc.ABC):
    """Interface shared by the offer, request-for-bids and reward-table methods."""

    #: Human-readable method name used in traces and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def initial_announcement(self, context: UtilityContext) -> Announcement:
        """The Utility Agent's opening announcement."""

    @abc.abstractmethod
    def respond(
        self,
        announcement: Announcement,
        customer: CustomerContext,
        previous_bid: Optional[Bid] = None,
    ) -> Bid:
        """A Customer Agent's response to an announcement."""

    @abc.abstractmethod
    def evaluate_round(
        self,
        context: UtilityContext,
        announcement: Announcement,
        bids: Mapping[str, Bid],
        round_number: int,
    ) -> RoundEvaluation:
        """Fold the round's bids into a new prediction and check termination."""

    @abc.abstractmethod
    def next_announcement(
        self,
        context: UtilityContext,
        previous: Announcement,
        evaluation: RoundEvaluation,
        round_number: int,
    ) -> Optional[Announcement]:
        """The next announcement, or ``None`` when no further round is possible.

        Implementations must respect the monotonic concession protocol: the
        returned announcement must be at least as attractive to customers as
        ``previous``.
        """

    @abc.abstractmethod
    def committed_cutdowns(
        self, context: UtilityContext, bids: Mapping[str, Bid]
    ) -> dict[str, float]:
        """Per-customer cut-down fractions implied by the given bids."""

    @abc.abstractmethod
    def rewards_due(
        self, context: UtilityContext, announcement: Announcement, bids: Mapping[str, Bid]
    ) -> dict[str, float]:
        """Per-customer reward (or price advantage) owed if these bids are awarded."""

    # -- array-native round contract (the ``rounds="array"`` fast path) ----------
    #
    # In array rounds a round's bids exist only as the numpy state array the
    # session's kernels already compute — cut-down fractions (reward tables),
    # needed uses (request for bids) or acceptance booleans (offer) in
    # population order.  ``undelivered`` (``None`` when fault-free) marks
    # rows whose bid the Utility Agent never received; implementations must
    # treat those rows exactly as the dict-based methods treat an absent
    # ``bids`` entry.  Every scalar the array contract produces must be
    # bit-identical to its dict sibling at equal inputs — the object path is
    # the equivalence oracle.

    def supports_array_rounds(self) -> bool:
        """Whether this method instance can evaluate rounds array-natively.

        ``False`` (the default) makes the session fall back to object
        rounds; the stock methods override with an exact-type check so a
        subclass with redefined semantics never silently rides the arrays.
        """
        return False

    def evaluate_round_arrays(
        self,
        context: UtilityContext,
        announcement: Announcement,
        population: "VectorizedPopulation",
        bid_state: np.ndarray,
        undelivered: Optional[np.ndarray],
        round_number: int,
    ) -> ArrayRoundEvaluation:
        """Array sibling of :meth:`evaluate_round` over the bid-state array."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement array-native rounds"
        )

    def committed_cutdowns_array(
        self,
        context: UtilityContext,
        population: "VectorizedPopulation",
        bid_state: np.ndarray,
        undelivered: Optional[np.ndarray],
    ) -> np.ndarray:
        """Array sibling of :meth:`committed_cutdowns` (population order)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement array-native rounds"
        )

    def rewards_due_array(
        self,
        context: UtilityContext,
        announcement: Announcement,
        population: "VectorizedPopulation",
        bid_state: np.ndarray,
        undelivered: Optional[np.ndarray],
    ) -> np.ndarray:
        """Array sibling of :meth:`rewards_due` (population order)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement array-native rounds"
        )
