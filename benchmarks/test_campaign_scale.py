"""Benchmark — multi-week load-management campaigns at town scale.

The ROADMAP's "multi-negotiation campaigns at scale" item: run the full
observe → predict → negotiate → apply → account loop
(:func:`repro.api.campaign`) over a multi-week horizon on a 10,000-household
population with ``backend="auto"``, so every planned day that qualifies rides
the batched fast path (``auto`` picks ``vectorized`` whenever the scenario
qualifies).

Since the columnar planning pipeline landed, the planning layer runs on the
:class:`~repro.grid.fleet.HouseholdFleet` kernels and the per-phase
wall-clock split (``CampaignResult.planning_seconds`` /
``negotiation_seconds``) is part of the report; the committed trajectory
lives in ``benchmarks/BENCH_campaign.json`` (see ``run_bench.py``).

The 10k multi-week run is tier-2; a 300-household week runs in tier-1 as a
``perf_smoke`` guard with a generous budget.  The 10k report carries
wall-clock figures that change on every run, so it goes to a scratch
directory rather than ``benchmarks/reports/``: a test run leaves the tree
clean.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.campaign_bench import render_entry, run_campaign_bench


def assert_campaign_rides_the_fast_path(result) -> None:
    """Every negotiated day must have run through a batched backend."""
    negotiated = [day for day in result.days if day.negotiated]
    assert negotiated, "the cold-snap cycle should force at least one negotiation"
    for day in negotiated:
        assert day.backend in ("vectorized", "sharded"), (
            f"day {day.day_index} fell back to {day.backend!r}"
        )


@pytest.mark.perf_smoke
def test_campaign_week_300_households_within_budget():
    """Tier-1 guard: a 300-household week (plan + negotiate + account every
    day) stays under a generous budget and rides the batched backends.  With
    columnar planning the run takes well under a second; the budget leaves
    two orders of magnitude of headroom for slow CI machines."""
    start = time.perf_counter()
    entry = run_campaign_bench(num_households=300, num_days=6)
    elapsed = time.perf_counter() - start
    result = entry.result
    assert result.num_days == 6
    assert_campaign_rides_the_fast_path(result)
    assert result.total_reward_paid >= 0
    # The phase split accounts for the bulk of the measured wall-clock.
    assert result.planning_seconds > 0
    assert result.planning_seconds + result.negotiation_seconds <= entry.wall_seconds
    assert elapsed < 60.0, f"300-household week took {elapsed:.1f}s"


@pytest.mark.tier2
def test_campaign_multiweek_10k_households(tmp_path):
    """The ROADMAP's 10k-household multi-week campaign benchmark: two weeks of
    day-ahead planning over 10,000 households with ``backend="auto"`` and
    columnar planning."""
    entry = run_campaign_bench(num_households=10_000, num_days=14)
    result = entry.result
    assert result.num_days == 14
    assert_campaign_rides_the_fast_path(result)
    # The pipeline stays economically sane at scale: rewards are paid on
    # negotiated days and the utility never pays without negotiating.
    assert result.days_negotiated >= 4
    assert result.total_reward_paid > 0
    (tmp_path / "campaign_scale_10k.txt").write_text(
        render_entry(entry) + "\n", encoding="utf-8"
    )
