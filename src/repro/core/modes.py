"""Canonical planning-pipeline mode values and their validators.

The campaign pipeline is steered by a handful of small string/int knobs that
appear at several layers — :class:`~repro.api.config.EngineConfig`, the
:class:`~repro.core.planning.DayAheadPlanner`, the population constructors
and the fluent builder.  Before this module each layer hand-rolled its own
check (or skipped it), which is how a typo'd ``planning="colunmar"`` could
slip through one entry point and silently land on the scalar path.  Every
layer now funnels through the same validators, so an invalid value fails at
construction with one canonical message listing the accepted values.

This module is deliberately dependency-free (imported by both
:mod:`repro.api` and :mod:`repro.core` without cycles).
"""

from __future__ import annotations

from typing import Optional

#: Planning-path modes: ``"columnar"`` runs the batched
#: :class:`~repro.grid.fleet.HouseholdFleet` kernels, ``"scalar"`` the
#: per-household object loop (the equivalence oracle).
PLANNING_MODES: tuple[str, ...] = ("columnar", "scalar")

#: Materialisation modes of the planning → negotiation hand-off:
#: ``"eager"`` builds per-household ``CustomerSpec`` objects and dict reward
#: tables (the equivalence oracle), ``"lazy"`` feeds the negotiation kernels
#: straight from the columnar planning arrays and only materialises objects
#: if something actually asks for them.
MATERIALISE_MODES: tuple[str, ...] = ("eager", "lazy")

#: Round-evaluation modes of the negotiation fast path: ``"object"`` builds
#: per-round ``Bid`` objects and dict round tables (the equivalence oracle),
#: ``"array"`` keeps a round's bids purely as the numpy state arrays the
#: kernels already compute and evaluates the round on them — no per-round
#: object construction at all.  Sessions that cannot take the array path for
#: a given scenario (non-stock method or policy) fall back to object rounds
#: and record the effective mode in the result metadata.
ROUNDS_MODES: tuple[str, ...] = ("object", "array")

#: The defaults every layer takes when the caller names no mode: the fast
#: path.  :class:`~repro.api.config.EngineConfig`, the planner, the population
#: constructors and the fast sessions all reference these two names, so no
#: two layers can default differently.  ``"object"`` rounds and ``"eager"``
#: hand-off stay reachable by name as the equivalence oracles.
DEFAULT_ROUNDS_MODE: str = "array"
DEFAULT_MATERIALISE_MODE: str = "lazy"


def validate_planning_mode(planning: str) -> str:
    """Return ``planning`` or raise a :class:`ValueError` naming the options."""
    if planning not in PLANNING_MODES:
        raise ValueError(
            f"unknown planning mode {planning!r}; expected one of {PLANNING_MODES}"
        )
    return planning


def validate_materialise_mode(materialise: str) -> str:
    """Return ``materialise`` or raise a :class:`ValueError` naming the options."""
    if materialise not in MATERIALISE_MODES:
        raise ValueError(
            f"unknown materialise mode {materialise!r}; "
            f"expected one of {MATERIALISE_MODES}"
        )
    return materialise


def validate_rounds_mode(rounds: str) -> str:
    """Return ``rounds`` or raise a :class:`ValueError` naming the options."""
    if rounds not in ROUNDS_MODES:
        raise ValueError(
            f"unknown rounds mode {rounds!r}; expected one of {ROUNDS_MODES}"
        )
    return rounds


def validate_history_window(history_window: Optional[int]) -> Optional[int]:
    """Return the window (``None`` = unbounded) or raise a :class:`ValueError`."""
    if history_window is None:
        return None
    window = int(history_window)
    if window < 1:
        raise ValueError(
            f"history_window must be a positive number of days or None "
            f"(unbounded), got {history_window!r}"
        )
    return window


def validate_shard_count(shards: Optional[int]) -> Optional[int]:
    """Return the shard count (``None`` = one per core) or raise a :class:`ValueError`.

    Shared by :class:`~repro.api.config.EngineConfig` and
    :class:`~repro.core.sharded_session.ShardedSession`, so a non-positive
    count fails at construction with one canonical message instead of
    propagating into a confusing worker-pool error.
    """
    if shards is None:
        return None
    count = int(shards)
    if count < 1:
        raise ValueError(
            f"shards must be a positive worker count or None (one per CPU "
            f"core), got {shards!r}"
        )
    return count
