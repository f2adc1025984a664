"""Multi-day campaigns through the engine façade.

:func:`campaign` is to :class:`~repro.core.planning.MultiDayCampaign` what
:func:`repro.api.run` is to the session classes: one entry point that routes
every planned day's negotiation through the engine backends with a single
:class:`~repro.api.config.EngineConfig`, and records what actually ran::

    from repro.api import EngineConfig, campaign

    result = campaign(planner, num_days=14)               # backend="auto"
    result = campaign(planner, num_days=14, backend="object",
                      config=EngineConfig(planning="scalar"))   # oracle run

The default configuration is the fast path: it plans each day on the
columnar :class:`~repro.grid.fleet.HouseholdFleet` kernels, hands the plan
over lazily (``materialise="lazy"``) and negotiates array rounds
(``rounds="array"``) on the vectorized backend whenever the day qualifies.
``EngineConfig(planning="scalar")`` plus ``backend="object"`` reruns the
identical campaign through the faithful object path — the seed-equivalence
oracle.  Per-day backend choices land in
``CampaignDay.backend`` (``CampaignResult.backends`` as a list), and the
planning/negotiation wall-clock split in ``CampaignResult.planning_seconds``
/ ``negotiation_seconds``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.api.config import EngineConfig
from repro.core.planning import CampaignResult, DayAheadPlanner, MultiDayCampaign
from repro.grid.production import ProductionModel
from repro.grid.weather import WeatherCondition, WeatherModel


def campaign(
    planner: DayAheadPlanner,
    num_days: int,
    *,
    conditions: Optional[Sequence[WeatherCondition]] = None,
    backend: str = "auto",
    config: Optional[EngineConfig] = None,
    warmup_days: int = 3,
    seed: int = 0,
    production: Optional[ProductionModel] = None,
    weather_model: Optional[WeatherModel] = None,
    checkpoint_path: Optional[str | os.PathLike] = None,
    resume_from: Optional[str | os.PathLike] = None,
    **overrides: object,
) -> CampaignResult:
    """Run a multi-day load-management campaign through the engine façade.

    Parameters
    ----------
    planner:
        The :class:`~repro.core.planning.DayAheadPlanner` owning the
        households, predictor and preference models.
    num_days:
        Campaign length (after ``warmup_days`` predictor warm-up days).
    conditions:
        Optional repeating weather-condition cycle; free-running weather
        otherwise.
    backend:
        Engine backend for each day's negotiation — ``"object"``,
        ``"vectorized"``, ``"sharded"`` or ``"auto"`` (default).  An unknown
        name raises :class:`~repro.api.UnknownBackendError` before any day
        runs.
    config:
        Base :class:`EngineConfig`; its ``planning`` field selects the
        columnar or scalar planning path, its ``materialise`` field the lazy
        (default, zero-materialisation) or eager (oracle) planning →
        negotiation hand-off, its ``rounds`` field array (default) or object
        (oracle) rounds, and its ``history_window`` bounds the predictor's
        memory.  When omitted, the planner's own planning and hand-off modes
        govern and the negotiation runs on ``EngineConfig()``; its ``seed``
        is stepped per day.
    warmup_days / seed / production / weather_model:
        Passed through to :class:`~repro.core.planning.MultiDayCampaign`.
    checkpoint_path:
        Persist a resumable :class:`~repro.core.checkpoint.CampaignCheckpoint`
        after each completed day (atomic write; a crash mid-day keeps the
        previous day's snapshot).
    resume_from:
        Continue a checkpointed campaign at its next day; the final rows are
        bit-identical to the uninterrupted run.  Build the campaign with the
        same parameters (enforced via the checkpoint fingerprint) and pass
        the same ``conditions`` sequence.
    **overrides:
        Individual :class:`EngineConfig` fields overriding ``config``, e.g.
        ``campaign(planner, 14, planning="scalar")``.

    Returns
    -------
    CampaignResult
        With ``metadata`` recording the requested backend, the planning
        mode, the hand-off that ran (``materialise``: lazy applies only on
        the columnar path) and the rounds mode that ran (``rounds``: taken
        from the negotiated days, ``"mixed"`` when they differ, ``None``
        when no day negotiated); per-day backend choices are on
        ``CampaignResult.backends``.
    """
    resolved = config
    if overrides:
        resolved = (config if config is not None else EngineConfig()).replace(**overrides)
    runner = MultiDayCampaign(
        planner,
        production=production,
        weather_model=weather_model,
        warmup_days=warmup_days,
        seed=seed,
        backend=backend,
        config=resolved,
    )
    result = runner.run(
        num_days,
        conditions=conditions,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    # With no config given, the planner's own modes govern.
    planning = resolved.planning if resolved is not None else planner.planning
    materialise = resolved.materialise if resolved is not None else planner.materialise
    if planning != "columnar" or planner.fleet is None:
        # The scalar path (chosen or fallen back to) always materialises.
        materialise = "eager"
    result.metadata.update(
        {
            "backend": backend,
            "planning": planning,
            "materialise": materialise,
            "rounds": _rounds_ran(result),
            "history_window": (
                resolved.history_window
                if resolved is not None and resolved.history_window is not None
                else getattr(planner.predictor, "history_window", None)
            ),
        }
    )
    return result


def _rounds_ran(result: CampaignResult) -> Optional[str]:
    """The rounds mode the campaign's negotiations ran, from per-day metadata.

    Days on the object backend carry no ``rounds_mode`` and ran object
    rounds.  ``"mixed"`` when days differ (a fast-path day fell back to
    object rounds); ``None`` when no day negotiated.
    """
    modes = {
        day.metadata.get("rounds_mode", "object")
        for day in result.days
        if day.outcome is not None and day.outcome.negotiation is not None
    }
    if not modes:
        return None
    return modes.pop() if len(modes) == 1 else "mixed"
