"""Engine configuration: one dataclass instead of kwarg sprawl.

Before the façade existed, every call site re-plumbed the same keyword
arguments into :class:`~repro.core.session.NegotiationSession` /
:class:`~repro.core.fast_session.FastSession` by hand.  :class:`EngineConfig`
consolidates them; backends translate it into whatever their session type
accepts.

Migration table (old session kwarg → config field):

==========================  ============================
``seed``                    :attr:`EngineConfig.seed`
``max_simulation_rounds``   :attr:`EngineConfig.max_simulation_rounds`
``check_protocol``          :attr:`EngineConfig.check_protocol`
``retain_message_log``      :attr:`EngineConfig.retain_message_log`
``include_producer``        :attr:`EngineConfig.include_producer`
``include_external_world``  :attr:`EngineConfig.include_external_world`
``with_resource_consumers`` :attr:`EngineConfig.with_resource_consumers`
==========================  ============================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.modes import (
    DEFAULT_MATERIALISE_MODE,
    DEFAULT_ROUNDS_MODE,
    validate_history_window,
    validate_materialise_mode,
    validate_planning_mode,
    validate_rounds_mode,
    validate_shard_count,
)
from repro.runtime.faults import FaultPlan


@dataclass(frozen=True)
class EngineConfig:
    """Everything a negotiation engine needs besides the scenario itself.

    Attributes
    ----------
    seed:
        Runtime seed.  Negotiations are deterministic given the scenario, so
        this only matters for components that draw randomness (kept for
        reproducibility bookkeeping and signature compatibility).
    max_simulation_rounds:
        Hard cap on simulation rounds (defensive bound, not a protocol
        parameter).
    check_protocol:
        Whether the monotonic-concession protocol checker runs in strict mode.
    retain_message_log:
        Whether the object path's message bus retains full message logs.
        The batched backends never materialise messages; for them this
        controls the analogous per-round *bid* retention on the negotiation
        record — set it ``False`` for huge campaign runs that only read the
        accounting rows (array rounds keep one bid column per round, object
        rounds one ``Bid`` object per customer per round).
    include_producer:
        Add the Producer Agent to the society (object path only).
    include_external_world:
        Add the External World agent (object path only).
    with_resource_consumers:
        Attach Resource Consumer Agents to each household (object path only).
    shards:
        Shard/worker count for ``backend="sharded"``.  ``None`` (default)
        means one shard per CPU core; the effective count is clamped to the
        population size.  Ignored by the other backends.
    planning:
        Planning path used by campaign runs (:func:`repro.api.campaign` /
        :class:`~repro.core.planning.MultiDayCampaign`): ``"columnar"``
        (default) runs the day-ahead planner on the batched
        :class:`~repro.grid.fleet.HouseholdFleet` kernels, ``"scalar"`` on
        the per-household object loop.  Both build bit-identical scenarios;
        the scalar path is the seed-equivalence oracle.  Ignored by single
        negotiations, whose scenario is already built.
    materialise:
        How campaign runs hand each planned day over to the negotiation:
        ``"lazy"`` (default) feeds the negotiation kernels straight from the
        columnar planning arrays and materialises nothing per household;
        ``"eager"`` (the equivalence oracle) builds the per-household
        ``CustomerSpec`` objects and dict reward tables.  Both produce
        bit-identical campaign rows; lazy applies on the columnar planning
        path (the scalar oracle always materialises).  Ignored by single
        negotiations.
    rounds:
        Round-evaluation mode of the negotiation fast path: ``"array"``
        (default) evaluates each round directly on the numpy state arrays
        the kernels already compute — zero per-round object construction,
        which is what makes 1M-household negotiations tractable;
        ``"object"`` (the equivalence oracle) builds per-round ``Bid``
        objects and dict round tables.  Both produce bit-identical results,
        round bid tables included: array rounds retain each round's bid
        column and hand it out as a lazy mapping that equals the object
        round's dict.  Scenarios the array path cannot take (non-stock
        method or acceptance/bidding policy) fall back to object rounds,
        and the effective mode is recorded in
        ``NegotiationResult.metadata["rounds_mode"]``.  Ignored by the
        object backend.
    history_window:
        Observation window (days) of the campaign planner's consumption
        predictor.  ``None`` (default) leaves the planner's own predictor
        configuration untouched (an unbounded default predictor keeps the
        full history — O(days · N · slots) memory); a positive window
        re-bounds the planner's predictor *in place* to a fixed ring —
        O(window · N · slots) no matter how long the campaign runs,
        dropping the oldest retained days when shrinking (the re-bound
        persists on the planner after the campaign).  Ignored by single
        negotiations.
    fault_plan:
        Deterministic fault-injection plan
        (:class:`~repro.runtime.faults.FaultPlan`).  ``None`` (default)
        disables injection entirely; a plan with every rate at zero takes
        the identical code paths as ``None`` and is bit-identical to it.
        With non-zero rates the runtime degrades instead of aborting —
        see the injected-fault report under
        ``NegotiationResult.metadata["faults"]``.
    """

    seed: Optional[int] = 0
    max_simulation_rounds: int = 200
    check_protocol: bool = True
    retain_message_log: bool = True
    include_producer: bool = False
    include_external_world: bool = False
    with_resource_consumers: bool = False
    shards: Optional[int] = None
    planning: str = "columnar"
    materialise: str = DEFAULT_MATERIALISE_MODE
    rounds: str = DEFAULT_ROUNDS_MODE
    history_window: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_simulation_rounds <= 0:
            raise ValueError("max_simulation_rounds must be positive")
        # One canonical validator per knob (shared with the planner, the
        # population constructors and the sharded session): a typo'd value
        # fails here, at construction, instead of silently selecting a
        # fallback path or surfacing as a confusing pool-level error.
        validate_shard_count(self.shards)
        validate_planning_mode(self.planning)
        validate_materialise_mode(self.materialise)
        validate_rounds_mode(self.rounds)
        validate_history_window(self.history_window)
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan or None, got "
                f"{type(self.fault_plan).__name__}"
            )

    # -- derived views -----------------------------------------------------------

    @property
    def needs_full_agent_society(self) -> bool:
        """Whether the configuration requires the object path's extra agents."""
        return (
            self.include_producer
            or self.include_external_world
            or self.with_resource_consumers
        )

    def replace(self, **overrides: object) -> "EngineConfig":
        """A copy with the given fields replaced (unknown fields raise)."""
        return dataclasses.replace(self, **overrides)

    # -- session construction ------------------------------------------------------

    def session_kwargs(self) -> dict[str, object]:
        """Keyword arguments for :class:`~repro.core.session.NegotiationSession`."""
        return {
            "seed": self.seed,
            "include_producer": self.include_producer,
            "include_external_world": self.include_external_world,
            "with_resource_consumers": self.with_resource_consumers,
            "max_simulation_rounds": self.max_simulation_rounds,
            "check_protocol": self.check_protocol,
            "retain_message_log": self.retain_message_log,
            "fault_plan": self.fault_plan,
        }

    def fast_session_kwargs(self) -> dict[str, object]:
        """Keyword arguments for :class:`~repro.core.fast_session.FastSession`."""
        return {
            "seed": self.seed,
            "max_simulation_rounds": self.max_simulation_rounds,
            "check_protocol": self.check_protocol,
            "retain_round_bids": self.retain_message_log,
            "rounds": self.rounds,
            "fault_plan": self.fault_plan,
        }

    def sharded_session_kwargs(self) -> dict[str, object]:
        """Keyword arguments for :class:`~repro.core.sharded_session.ShardedSession`."""
        return {**self.fast_session_kwargs(), "shards": self.shards}
