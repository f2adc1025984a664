#!/usr/bin/env python
"""Standalone perf-bench entry point for the E9 scalability sweep.

Runs the extended fast-path sweep (10 -> 10,000 households by default), the
sharded-runtime sweep (5,000 -> 50,000 households, one worker per core), the
object-path reference sweep and the campaign benchmarks — the 10k-household
14-day pipeline (planning-phase vs negotiation-phase wall-clock split,
columnar and scalar planning, lazy and array-round variants, each asserted
row-identical to the eager/object oracle), the 100k ``lazy_large`` point,
the million-household ``campaign_xlarge`` point (both lazy + bounded history
window + no bid retention + ``rounds="array"``, tracemalloc'd) and the
mixed-town ``hetero`` point (bucketed-fleet planning vs the scalar fallback
it replaces, with a speedup acceptance floor) — and writes
the plain-text reports to ``benchmarks/reports/`` and the machine-readable
perf trajectories to ``benchmarks/BENCH_scalability.json`` and
``benchmarks/BENCH_campaign.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --sizes 10 100 1000 --seed 3
    PYTHONPATH=src python benchmarks/run_bench.py --shards 8 --sharded-sizes 10000 50000
    PYTHONPATH=src python benchmarks/run_bench.py --skip-object-path --skip-sharded
    PYTHONPATH=src python benchmarks/run_bench.py --skip-campaign-scalar
    PYTHONPATH=src python benchmarks/run_bench.py --check

The JSON artefacts are what CI and future scaling PRs diff against; the text
reports are for humans.  ``--check`` replays the committed baselines' sweeps
and the columnar campaign and exits non-zero when behaviour drifts
(rounds/messages/peak reduction/negotiated days/reward totals are
deterministic and must match exactly across backends — the sharded runtime
and the columnar planning path are bit-identical by contract) or wall-clock
regresses beyond the tolerances.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.agents.sharded import default_shard_count  # noqa: E402  (path setup)
from repro.experiments.campaign_bench import (  # noqa: E402  (path setup above)
    CAMPAIGN_DAYS,
    CAMPAIGN_HOUSEHOLDS,
    CAMPAIGN_SEED,
    HETERO_CAMPAIGN_DAYS,
    HETERO_MIN_PLANNING_SPEEDUP,
    LARGE_CAMPAIGN_HOUSEHOLDS,
    LARGE_CAMPAIGN_WINDOW,
    XLARGE_CAMPAIGN_HOUSEHOLDS,
    render_entry,
    run_campaign_bench,
    write_campaign_json,
)
from repro.experiments.scalability import (  # noqa: E402  (path setup above)
    FAST_PATH_SIZES,
    SHARDED_SIZES,
    run_scalability,
    write_benchmark_json,
)
from repro.experiments.overload_bench import (  # noqa: E402  (path setup above)
    OVERLOAD_BURST_FACTOR,
    OVERLOAD_HOUSEHOLDS,
    OVERLOAD_MAX_QUEUE,
    run_overload_bench,
    write_overload_json,
)
from repro.experiments.serving_bench import (  # noqa: E402  (path setup above)
    SERVING_HOUSEHOLDS,
    SERVING_MAX_BATCH,
    SERVING_MAX_WAIT,
    SERVING_REQUESTS,
    run_serving_bench,
    write_serving_json,
)

#: Object-path reference sizes: kept small, the object path is the slow one.
OBJECT_PATH_SIZES: tuple[int, ...] = (10, 50, 200)

#: Wall-clock regression tolerances for ``--check``, as (max population size,
#: allowed slowdown factor) bands.  Small runs are millisecond-scale and
#: dominated by scheduler noise, so they get the widest band; an absolute
#: floor below keeps sub-10ms entries from flagging at all.
WALL_TOLERANCE_BANDS: tuple[tuple[int, float], ...] = (
    (200, 4.0),
    (2000, 3.0),
    (10**9, 2.0),
)
#: Minimum wall-clock (seconds) a regression must exceed before it counts.
WALL_ABSOLUTE_FLOOR_SECONDS = 0.25

#: Campaign-phase wall-clock tolerance for ``--check``: the replay's
#: planning/negotiation phases may be at most this factor slower than the
#: committed baseline (one band — the campaign runs at a single size).
CAMPAIGN_WALL_TOLERANCE = 3.0
#: Absolute floor (seconds) below which campaign phase regressions are noise.
CAMPAIGN_WALL_FLOOR_SECONDS = 5.0

#: Peak-memory tolerance for the ``lazy_large`` campaign replay: the fresh
#: tracemalloc peak may be at most this factor above the committed baseline.
#: tracemalloc counts live Python/numpy allocations, which are deterministic
#: up to allocator/runtime details, so the band is tighter than wall-clock;
#: the absolute floor keeps interpreter-version noise from flagging.
CAMPAIGN_MEMORY_TOLERANCE = 1.5
CAMPAIGN_MEMORY_FLOOR_MB = 256.0

#: Serving-stage acceptance: coalesced throughput must beat sequential by at
#: least this factor on the committed 64-request workload.
SERVING_MIN_SPEEDUP = 3.0
#: Wall-clock tolerance for the serving replay's concurrent phase.
SERVING_WALL_TOLERANCE = 3.0
SERVING_WALL_FLOOR_SECONDS = 5.0

#: Overload-stage acceptance: the p99 queue wait of a replay may be at most
#: this factor above the committed baseline, with an absolute floor below
#: which scheduler noise never flags.  The behavioural gates (zero hung
#: requests, universal bit-identity, sheds carrying Retry-After, the deadline
#: probe expiring) are absolute — no tolerance.
OVERLOAD_P99_TOLERANCE = 4.0
OVERLOAD_P99_FLOOR_SECONDS = 2.0


def wall_tolerance_for(size: int) -> float:
    """Allowed slowdown factor over the committed baseline for one size."""
    for upper, factor in WALL_TOLERANCE_BANDS:
        if size <= upper:
            return factor
    return WALL_TOLERANCE_BANDS[-1][1]  # pragma: no cover - bands end at inf


def _check_sweep(
    label: str,
    baseline_entries: dict[int, dict],
    fresh_entries: list,
    failures: list[str],
) -> None:
    """Behaviour must match the baseline exactly; wall-clock within bands."""
    for entry in fresh_entries:
        size = entry.num_households
        row = entry.as_row()
        base = baseline_entries[size]
        # Deterministic behaviour must reproduce the baseline exactly.
        for key in ("rounds", "messages"):
            if row[key] != base[key]:
                failures.append(
                    f"{label} size {size}: {key} changed {base[key]} -> {row[key]}"
                )
        if abs(row["peak_reduction_fraction"] - base["peak_reduction_fraction"]) > 1e-9:
            failures.append(
                f"{label} size {size}: peak_reduction_fraction changed "
                f"{base['peak_reduction_fraction']} -> {row['peak_reduction_fraction']}"
            )
        # Wall-clock gets a per-size tolerance band plus an absolute floor.
        allowed = max(
            base["wall_seconds"] * wall_tolerance_for(size),
            WALL_ABSOLUTE_FLOOR_SECONDS,
        )
        status = "ok"
        if row["wall_seconds"] > allowed:
            failures.append(
                f"{label} size {size}: wall_seconds {row['wall_seconds']:.4f} "
                f"exceeds {allowed:.4f} (baseline {base['wall_seconds']:.4f} x "
                f"{wall_tolerance_for(size):.1f})"
            )
            status = "REGRESSION"
        print(
            f"  [{label}] size {size:>6}: wall {row['wall_seconds']:.4f}s "
            f"(baseline {base['wall_seconds']:.4f}s, allowed {allowed:.4f}s) "
            f"rounds {row['rounds']} messages {row['messages']} [{status}]"
        )


def _hetero_backend_gate(label: str, row: dict, failures: list[str]) -> None:
    """Every negotiated day of a mixed town must ride a batched backend.

    A heterogeneous population silently landing on the object path is
    exactly the fallback cliff this benchmark exists to guard against.
    """
    stray = sorted(
        {
            backend
            for backend in row["backends"]
            if backend not in ("-", "vectorized", "sharded")
        }
    )
    if stray:
        failures.append(
            f"{label}: negotiated days ran unbatched backends {stray}"
        )


def check_campaign_baseline(
    baseline_path: Path, failures: list[str], skip_hetero: bool = False
) -> None:
    """Replay the committed campaign trajectory and compare.

    Campaign *behaviour* (which days negotiated, total reward) is
    deterministic and must reproduce the baseline exactly; the planning- and
    negotiation-phase wall-clock each get a tolerance factor plus an absolute
    floor.  A missing artefact is reported as a failure — the campaign
    trajectory ships with the repository.
    """
    try:
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        base = payload["columnar"]
        seed = int(payload.get("seed", CAMPAIGN_SEED))
    except (OSError, KeyError, ValueError, TypeError) as error:
        failures.append(f"cannot read campaign baseline {baseline_path}: {error}")
        return
    print(
        f"campaign check against {baseline_path} "
        f"({base['num_households']} households x {base['num_days']} days seed={seed})"
    )
    entry = run_campaign_bench(
        num_households=int(base["num_households"]),
        num_days=int(base["num_days"]),
        seed=seed,
        backend=str(base.get("backend", "auto")),
        planning="columnar",
        rounds=str(base.get("rounds", "object")),
    )
    _compare_campaign_entry("campaign", base, entry, failures)
    large = payload.get("lazy_large")
    if large is not None:
        print(
            f"lazy-large campaign check "
            f"({large['num_households']} households x {large['num_days']} days, "
            f"materialise=lazy, history_window={large.get('history_window')}, "
            f"rounds={large.get('rounds', 'object')})"
        )
        large_entry = run_campaign_bench(
            num_households=int(large["num_households"]),
            num_days=int(large["num_days"]),
            seed=seed,
            backend=str(large.get("backend", "auto")),
            planning="columnar",
            materialise="lazy",
            history_window=large.get("history_window"),
            rounds=str(large.get("rounds", "object")),
            retain_logs=False,
            track_memory=True,
        )
        _compare_campaign_entry("lazy_large", large, large_entry, failures)
    xlarge = payload.get("xlarge")
    if xlarge is not None:
        print(
            f"xlarge campaign check "
            f"({xlarge['num_households']} households x {xlarge['num_days']} days, "
            f"materialise=lazy, history_window={xlarge.get('history_window')}, "
            f"rounds={xlarge.get('rounds', 'object')})"
        )
        xlarge_entry = run_campaign_bench(
            num_households=int(xlarge["num_households"]),
            num_days=int(xlarge["num_days"]),
            seed=seed,
            backend=str(xlarge.get("backend", "auto")),
            planning="columnar",
            materialise="lazy",
            history_window=xlarge.get("history_window"),
            rounds=str(xlarge.get("rounds", "object")),
            retain_logs=False,
            track_memory=True,
        )
        _compare_campaign_entry("xlarge", xlarge, xlarge_entry, failures)
    hetero = payload.get("hetero")
    if hetero is not None and not skip_hetero:
        print(
            f"hetero campaign check "
            f"({hetero['num_households']} households x {hetero['num_days']} days, "
            f"town={hetero.get('town', 'mixed')})"
        )
        hetero_entry = run_campaign_bench(
            num_households=int(hetero["num_households"]),
            num_days=int(hetero["num_days"]),
            seed=seed,
            backend=str(hetero.get("backend", "auto")),
            planning="columnar",
            rounds=str(hetero.get("rounds", "object")),
            town=str(hetero.get("town", "mixed")),
        )
        _compare_campaign_entry("hetero", hetero, hetero_entry, failures)
        _hetero_backend_gate("hetero", hetero_entry.as_row(), failures)
        speedup = payload.get("hetero_planning_speedup")
        if speedup is None:
            failures.append(
                "hetero: baseline records no hetero_planning_speedup"
            )
        elif float(speedup) < HETERO_MIN_PLANNING_SPEEDUP:
            failures.append(
                f"hetero: recorded planning speedup {float(speedup):.1f}x "
                f"below the {HETERO_MIN_PLANNING_SPEEDUP:.1f}x floor"
            )


def _compare_campaign_entry(
    label: str, base: dict, entry, failures: list[str]
) -> None:
    """Exact behaviour, banded wall-clock, banded peak memory (when recorded)."""
    row = entry.as_row()
    for key in ("days_negotiated", "negotiated_days", "total_reward_paid"):
        if row[key] != base[key]:
            failures.append(
                f"{label}: {key} changed {base[key]} -> {row[key]}"
            )
    # Provenance: the effective rounds modes must reproduce the baseline's
    # (an array baseline silently falling back to object rounds is a bug).
    if "rounds_modes" in base and row.get("rounds_modes") != base["rounds_modes"]:
        failures.append(
            f"{label}: rounds_modes changed {base['rounds_modes']} -> "
            f"{row.get('rounds_modes')}"
        )
    for phase in ("planning_seconds", "negotiation_seconds"):
        allowed = max(
            float(base[phase]) * CAMPAIGN_WALL_TOLERANCE, CAMPAIGN_WALL_FLOOR_SECONDS
        )
        status = "ok"
        if row[phase] > allowed:
            failures.append(
                f"{label}: {phase} {row[phase]:.2f} exceeds {allowed:.2f} "
                f"(baseline {float(base[phase]):.2f} x {CAMPAIGN_WALL_TOLERANCE:.1f})"
            )
            status = "REGRESSION"
        print(
            f"  [{label}] {phase}: {row[phase]:.2f}s "
            f"(baseline {float(base[phase]):.2f}s, allowed {allowed:.2f}s) [{status}]"
        )
    baseline_peak = base.get("peak_traced_mb")
    fresh_peak = row.get("peak_traced_mb")
    if baseline_peak is not None and fresh_peak is not None:
        allowed = max(
            float(baseline_peak) * CAMPAIGN_MEMORY_TOLERANCE, CAMPAIGN_MEMORY_FLOOR_MB
        )
        status = "ok"
        if fresh_peak > allowed:
            failures.append(
                f"{label}: peak_traced_mb {fresh_peak:.1f} exceeds {allowed:.1f} "
                f"(baseline {float(baseline_peak):.1f} x "
                f"{CAMPAIGN_MEMORY_TOLERANCE:.2f})"
            )
            status = "REGRESSION"
        print(
            f"  [{label}] peak_traced_mb: {fresh_peak:.1f} "
            f"(baseline {float(baseline_peak):.1f}, allowed {allowed:.1f}) [{status}]"
        )


def check_serving_baseline(baseline_path: Path, failures: list[str]) -> None:
    """Replay the committed serving workload and compare.

    Negotiation *behaviour* across the 64 requests (total rounds, total
    reward) is deterministic and must reproduce the baseline exactly; the
    coalescing invariants (kernel-pass budget, minimum speedup over the
    sequential phase) are absolute acceptance floors, not baselines; the
    concurrent phase's wall-clock gets a tolerance factor plus a floor.
    """
    try:
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        base = payload["serving"]
    except (OSError, KeyError, ValueError, TypeError) as error:
        failures.append(f"cannot read serving baseline {baseline_path}: {error}")
        return
    print(
        f"serving check against {baseline_path} "
        f"({base['num_requests']} requests x {base['households']} households, "
        f"max_batch={base['max_batch']})"
    )
    entry = run_serving_bench(
        num_requests=int(base["num_requests"]),
        households=int(base["households"]),
        max_batch=int(base["max_batch"]),
        max_wait=float(base["max_wait"]),
    )
    row = entry.as_row()
    for key in ("total_rounds", "total_reward_paid"):
        if row[key] != base[key]:
            failures.append(f"serving: {key} changed {base[key]} -> {row[key]}")
    pass_budget = -(-int(base["num_requests"]) // int(base["max_batch"]))  # ceil
    if row["kernel_passes"] > pass_budget:
        failures.append(
            f"serving: {row['num_requests']} requests took "
            f"{row['kernel_passes']} kernel passes (budget {pass_budget})"
        )
    if row["speedup"] < SERVING_MIN_SPEEDUP:
        failures.append(
            f"serving: coalesced speedup {row['speedup']:.2f}x below the "
            f"{SERVING_MIN_SPEEDUP:.1f}x acceptance floor"
        )
    allowed = max(
        float(base["concurrent_seconds"]) * SERVING_WALL_TOLERANCE,
        SERVING_WALL_FLOOR_SECONDS,
    )
    status = "ok"
    if row["concurrent_seconds"] > allowed:
        failures.append(
            f"serving: concurrent_seconds {row['concurrent_seconds']:.2f} exceeds "
            f"{allowed:.2f} (baseline {float(base['concurrent_seconds']):.2f} x "
            f"{SERVING_WALL_TOLERANCE:.1f})"
        )
        status = "REGRESSION"
    print(
        f"  [serving] concurrent {row['concurrent_seconds']:.2f}s / sequential "
        f"{row['sequential_seconds']:.2f}s = {row['speedup']:.1f}x, "
        f"{row['kernel_passes']} kernel passes (budget {pass_budget}, occupancy "
        f"{row['mean_occupancy']:.1f}) [{status}]"
    )


def _overload_gates(label: str, row: dict, failures: list[str]) -> None:
    """The absolute overload invariants — no tolerance, every run."""
    if row["hung"] != 0:
        failures.append(
            f"{label}: {row['hung']} request(s) hung (no terminal state in budget)"
        )
    if row["bit_mismatches"] != 0:
        failures.append(
            f"{label}: {row['bit_mismatches']} request(s) diverged from their "
            f"solo payloads under overload"
        )
    expected_identical = row["num_requests"]  # burst + the retried sheds
    if row["bit_identical"] != expected_identical:
        failures.append(
            f"{label}: only {row['bit_identical']}/{expected_identical} "
            f"requests completed bit-identical to solo runs"
        )
    if row["shed"] == 0:
        failures.append(
            f"{label}: the {row['burst_factor']}x burst shed nothing — the "
            f"workload no longer overloads the {row['max_queue']}-slot queue"
        )
    if row["sheds_with_retry_after"] != row["shed"]:
        failures.append(
            f"{label}: {row['shed'] - row['sheds_with_retry_after']} shed(s) "
            f"answered without a 429 + Retry-After"
        )
    if row["retried_to_completion"] != row["shed"]:
        failures.append(
            f"{label}: only {row['retried_to_completion']}/{row['shed']} shed "
            f"requests healed to completion through the retrying client"
        )
    if not row["deadline_probe_expired"]:
        failures.append(
            f"{label}: the 1ms-deadline probe did not terminate as "
            f"expired/deadline_exceeded"
        )


def check_overload_baseline(baseline_path: Path, failures: list[str]) -> None:
    """Replay the committed overload burst and compare.

    Which individual requests get shed is timing-dependent, so the gates are
    per-run invariants rather than exact cross-run counts: every request must
    terminate (zero hung), every completion must be bit-identical to a solo
    run, every shed must be an honest 429 with Retry-After and must heal to
    completion through the retrying client, the deadline probe must expire
    cleanly, and the p99 queue wait must stay within a tolerance band of the
    committed baseline.
    """
    try:
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        base = payload["overload"]
    except (OSError, KeyError, ValueError, TypeError) as error:
        failures.append(f"cannot read overload baseline {baseline_path}: {error}")
        return
    print(
        f"overload check against {baseline_path} "
        f"({base['num_requests']} requests burst at {base['burst_factor']}x a "
        f"{base['max_queue']}-slot queue, {base['households']} households each)"
    )
    entry = run_overload_bench(
        max_queue=int(base["max_queue"]),
        burst_factor=int(base["burst_factor"]),
        households=int(base["households"]),
    )
    row = entry.as_row()
    _overload_gates("overload", row, failures)
    allowed = max(
        float(base["p99_queue_wait"]) * OVERLOAD_P99_TOLERANCE,
        OVERLOAD_P99_FLOOR_SECONDS,
    )
    status = "ok"
    if row["p99_queue_wait"] > allowed:
        failures.append(
            f"overload: p99_queue_wait {row['p99_queue_wait']:.3f}s exceeds "
            f"{allowed:.3f}s (baseline {float(base['p99_queue_wait']):.3f}s x "
            f"{OVERLOAD_P99_TOLERANCE:.1f})"
        )
        status = "REGRESSION"
    print(
        f"  [overload] admitted {row['admitted']} shed {row['shed']} hung "
        f"{row['hung']} bit-identical {row['bit_identical']}/"
        f"{row['num_requests']}, p99 queue wait {row['p99_queue_wait']:.3f}s "
        f"(baseline {float(base['p99_queue_wait']):.3f}s, allowed "
        f"{allowed:.3f}s) [{status}]"
    )


def check_against_baseline(
    baseline_path: Path,
    campaign_path: Path | None = None,
    serving_path: Path | None = None,
    overload_path: Path | None = None,
    skip_campaign_hetero: bool = False,
) -> int:
    """Compare fresh sweeps against the committed trajectory.

    Replays the fast-path sweep, the sharded sweep when the baseline carries
    one (at the baseline's shard count), the campaign trajectory when
    ``campaign_path`` is given, the serving workload when ``serving_path``
    is given and the overload burst when ``overload_path`` is given.  Returns
    0 when behaviour matches and wall-clock stays within tolerance, 1 on any
    regression, 2 when the scalability baseline artefact is
    missing/unreadable.
    """
    try:
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        baseline = payload["fast_path"]
        baseline_entries = {
            int(entry["num_households"]): entry for entry in baseline["entries"]
        }
        seed = int(payload.get("seed", 0))
        sharded_baseline = payload.get("sharded_path")
        if sharded_baseline is not None:
            sharded_entries = {
                int(entry["num_households"]): entry
                for entry in sharded_baseline["entries"]
            }
            shards = int(sharded_baseline.get("shards") or default_shard_count())
    except (OSError, KeyError, ValueError, TypeError) as error:
        print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        return 2
    sizes = tuple(sorted(baseline_entries))
    print(f"perf check against {baseline_path} (sizes={list(sizes)} seed={seed})")
    fresh = run_scalability(sizes=sizes, seed=seed, fast=True)
    failures: list[str] = []
    _check_sweep("fast", baseline_entries, fresh.entries, failures)

    if sharded_baseline is not None:
        sharded_sizes = tuple(sorted(sharded_entries))
        print(f"sharded check (sizes={list(sharded_sizes)} shards={shards})")
        fresh_sharded = run_scalability(
            sizes=sharded_sizes, seed=seed, backend="sharded", shards=shards
        )
        _check_sweep("sharded", sharded_entries, fresh_sharded.entries, failures)
        # Cross-backend equivalence: at sizes both sweeps cover, the sharded
        # runtime must reproduce the fast path's behaviour bit for bit.
        fast_fresh = {e.num_households: e.as_row() for e in fresh.entries}
        for entry in fresh_sharded.entries:
            row = entry.as_row()
            fast_row = fast_fresh.get(entry.num_households)
            if fast_row is None:
                continue
            for key in ("rounds", "messages", "peak_reduction_fraction"):
                if row[key] != fast_row[key]:
                    failures.append(
                        f"sharded size {entry.num_households}: {key} diverges "
                        f"from the fast path ({fast_row[key]} -> {row[key]})"
                    )

    if campaign_path is not None:
        check_campaign_baseline(
            campaign_path, failures, skip_hetero=skip_campaign_hetero
        )

    if serving_path is not None:
        check_serving_baseline(serving_path, failures)

    if overload_path is not None:
        check_overload_baseline(overload_path, failures)

    if failures:
        print("\nperf check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf check passed: behaviour identical, wall-clock within tolerances")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(FAST_PATH_SIZES),
        help="fast-path population sizes to sweep",
    )
    parser.add_argument(
        "--object-sizes", type=int, nargs="+", default=list(OBJECT_PATH_SIZES),
        help="object-path reference sizes (kept small on purpose)",
    )
    parser.add_argument(
        "--sharded-sizes", type=int, nargs="+", default=list(SHARDED_SIZES),
        help="sharded-runtime population sizes to sweep",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="worker count for the sharded sweep (default: one per core, min 2)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--skip-object-path", action="store_true",
        help="skip the object-path reference sweep (no speedup entry)",
    )
    parser.add_argument(
        "--skip-sharded", action="store_true",
        help="skip the sharded-runtime sweep",
    )
    parser.add_argument(
        "--json", type=Path, default=BENCH_DIR / "BENCH_scalability.json",
        help="where to write the machine-readable trajectory",
    )
    parser.add_argument(
        "--campaign-json", type=Path, default=BENCH_DIR / "BENCH_campaign.json",
        help="where to write (or read, with --check) the campaign trajectory",
    )
    parser.add_argument(
        "--campaign-households", type=int, default=CAMPAIGN_HOUSEHOLDS,
        help="population size of the campaign benchmark",
    )
    parser.add_argument(
        "--campaign-days", type=int, default=CAMPAIGN_DAYS,
        help="length of the campaign benchmark (days)",
    )
    parser.add_argument(
        "--skip-campaign", action="store_true",
        help="skip the multi-day campaign benchmark",
    )
    parser.add_argument(
        "--skip-campaign-scalar", action="store_true",
        help="skip the scalar-planning reference campaign (no planning_speedup "
             "entry; the scalar run costs minutes at 10k households)",
    )
    parser.add_argument(
        "--campaign-large-households", type=int, default=LARGE_CAMPAIGN_HOUSEHOLDS,
        help="population size of the utility-scale lazy campaign point",
    )
    parser.add_argument(
        "--skip-campaign-hetero", action="store_true",
        help="skip the heterogeneous-town campaign point (no hetero entry / "
             "no hetero replay with --check)",
    )
    parser.add_argument(
        "--skip-campaign-large", action="store_true",
        help="skip the utility-scale lazy campaign point (no lazy_large entry)",
    )
    parser.add_argument(
        "--campaign-xlarge-households", type=int,
        default=XLARGE_CAMPAIGN_HOUSEHOLDS,
        help="population size of the million-household array-round point",
    )
    parser.add_argument(
        "--skip-campaign-xlarge", action="store_true",
        help="skip the million-household array-round point (no xlarge entry)",
    )
    parser.add_argument(
        "--serving-json", type=Path, default=BENCH_DIR / "BENCH_serving.json",
        help="where to write (or read, with --check) the serving trajectory",
    )
    parser.add_argument(
        "--skip-serving", action="store_true",
        help="skip the negotiation-serving throughput benchmark",
    )
    parser.add_argument(
        "--overload-json", type=Path, default=BENCH_DIR / "BENCH_overload.json",
        help="where to write (or read, with --check) the overload trajectory",
    )
    parser.add_argument(
        "--skip-overload", action="store_true",
        help="skip the admission-control overload benchmark",
    )
    parser.add_argument(
        "--campaign-only", action="store_true",
        help="run only the campaign stages (leaves BENCH_scalability.json and "
             "its report untouched)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh sweep against the committed trajectory instead of "
             "rewriting it; exits non-zero on regression",
    )
    arguments = parser.parse_args(argv)

    if arguments.check:
        # The check must replay the committed baseline exactly, so sweep
        # parameters cannot be overridden alongside it.
        if (
            arguments.sizes != list(FAST_PATH_SIZES)
            or arguments.object_sizes != list(OBJECT_PATH_SIZES)
            or arguments.sharded_sizes != list(SHARDED_SIZES)
            or arguments.shards is not None
            or arguments.seed != 0
            or arguments.skip_object_path
            or arguments.skip_sharded
            or arguments.campaign_households != CAMPAIGN_HOUSEHOLDS
            or arguments.campaign_days != CAMPAIGN_DAYS
            or arguments.campaign_large_households != LARGE_CAMPAIGN_HOUSEHOLDS
            or arguments.campaign_xlarge_households != XLARGE_CAMPAIGN_HOUSEHOLDS
            or arguments.campaign_only
        ):
            parser.error(
                "--check replays the committed baseline's sizes, shards and "
                "seed; it cannot be combined with --sizes/--object-sizes/"
                "--sharded-sizes/--shards/--seed/--skip-object-path/"
                "--skip-sharded/--campaign-households/--campaign-days/"
                "--campaign-large-households/--campaign-xlarge-households/"
                "--campaign-only"
            )
        campaign_path = None if arguments.skip_campaign else arguments.campaign_json
        serving_path = None if arguments.skip_serving else arguments.serving_json
        overload_path = None if arguments.skip_overload else arguments.overload_json
        return check_against_baseline(
            arguments.json, campaign_path, serving_path, overload_path,
            skip_campaign_hetero=arguments.skip_campaign_hetero,
        )

    shards = (
        arguments.shards
        if arguments.shards is not None
        else max(2, default_shard_count())
    )

    report_dir = BENCH_DIR / "reports"
    report_dir.mkdir(exist_ok=True)

    if not arguments.campaign_only:
        print(f"fast-path sweep: sizes={arguments.sizes} seed={arguments.seed}")
        fast_result = run_scalability(
            sizes=tuple(arguments.sizes), seed=arguments.seed, fast=True
        )
        print(fast_result.render())

        sharded_result = None
        if not arguments.skip_sharded:
            print(
                f"sharded sweep: sizes={arguments.sharded_sizes} shards={shards}"
            )
            sharded_result = run_scalability(
                sizes=tuple(arguments.sharded_sizes), seed=arguments.seed,
                backend="sharded", shards=shards,
            )
            print(sharded_result.render())

        object_result = None
        if not arguments.skip_object_path:
            print(f"object-path reference: sizes={arguments.object_sizes}")
            object_result = run_scalability(
                sizes=tuple(arguments.object_sizes), seed=arguments.seed, fast=False
            )
            print(object_result.render())

        report_path = report_dir / "E9_scalability_fast.txt"
        report = fast_result.render()
        if sharded_result is not None:
            report += "\n\n" + sharded_result.render()
        if object_result is not None:
            report += "\n\n" + object_result.render()
        report_path.write_text(report + "\n", encoding="utf-8")
        json_path = write_benchmark_json(
            arguments.json, fast_result, object_result, seed=arguments.seed,
            sharded_result=sharded_result,
        )
        print(f"wrote {report_path}")
        print(f"wrote {json_path}")

    if not arguments.skip_campaign:
        print(
            f"campaign benchmark: {arguments.campaign_households} households x "
            f"{arguments.campaign_days} days (columnar planning)"
        )
        columnar_entry = run_campaign_bench(
            num_households=arguments.campaign_households,
            num_days=arguments.campaign_days,
            seed=arguments.seed,
        )
        print(render_entry(columnar_entry))
        scalar_entry = None
        if not arguments.skip_campaign_scalar:
            print("campaign benchmark: scalar-planning reference run")
            scalar_entry = run_campaign_bench(
                num_households=arguments.campaign_households,
                num_days=arguments.campaign_days,
                seed=arguments.seed,
                planning="scalar",
            )
            print(render_entry(scalar_entry))
            # The columnar pipeline is an optimisation, not a behaviour
            # change: both planning paths must realise the identical campaign.
            if scalar_entry.result.rows() != columnar_entry.result.rows():
                print(
                    "campaign FAILURE: scalar and columnar planning diverged",
                    file=sys.stderr,
                )
                return 1
            speedup = (
                scalar_entry.result.planning_seconds
                / columnar_entry.result.planning_seconds
            )
            print(f"planning_speedup (scalar/columnar): {speedup:.1f}x")
        print(
            f"campaign benchmark: {arguments.campaign_households} households x "
            f"{arguments.campaign_days} days (lazy materialisation, tracemalloc)"
        )
        lazy_entry = run_campaign_bench(
            num_households=arguments.campaign_households,
            num_days=arguments.campaign_days,
            seed=arguments.seed,
            materialise="lazy",
            track_memory=True,
        )
        print(render_entry(lazy_entry))
        # Zero-materialisation is an optimisation, not a behaviour change:
        # wherever lazy and eager both run, the campaigns must be identical.
        if lazy_entry.result.rows() != columnar_entry.result.rows():
            print(
                "campaign FAILURE: lazy and eager materialisation diverged",
                file=sys.stderr,
            )
            return 1
        print(
            f"campaign benchmark: {arguments.campaign_households} households x "
            f"{arguments.campaign_days} days (array rounds)"
        )
        array_entry = run_campaign_bench(
            num_households=arguments.campaign_households,
            num_days=arguments.campaign_days,
            seed=arguments.seed,
            rounds="array",
        )
        print(render_entry(array_entry))
        # Array rounds are an optimisation, not a behaviour change: the
        # campaign must be row-identical to the object-round oracle run.
        if array_entry.result.rows() != columnar_entry.result.rows():
            print(
                "campaign FAILURE: array and object rounds diverged",
                file=sys.stderr,
            )
            return 1
        large_entry = None
        if not arguments.skip_campaign_large:
            print(
                f"campaign benchmark: {arguments.campaign_large_households} "
                f"households x {arguments.campaign_days} days (lazy, "
                f"history_window={LARGE_CAMPAIGN_WINDOW}, no bid retention, "
                f"array rounds, tracemalloc)"
            )
            large_entry = run_campaign_bench(
                num_households=arguments.campaign_large_households,
                num_days=arguments.campaign_days,
                seed=arguments.seed,
                materialise="lazy",
                history_window=LARGE_CAMPAIGN_WINDOW,
                rounds="array",
                retain_logs=False,
                track_memory=True,
            )
            print(render_entry(large_entry))
        xlarge_entry = None
        if not arguments.skip_campaign_xlarge:
            print(
                f"campaign benchmark: {arguments.campaign_xlarge_households} "
                f"households x {arguments.campaign_days} days (lazy, "
                f"history_window={LARGE_CAMPAIGN_WINDOW}, no bid retention, "
                f"array rounds, tracemalloc)"
            )
            xlarge_entry = run_campaign_bench(
                num_households=arguments.campaign_xlarge_households,
                num_days=arguments.campaign_days,
                seed=arguments.seed,
                materialise="lazy",
                history_window=LARGE_CAMPAIGN_WINDOW,
                rounds="array",
                retain_logs=False,
                track_memory=True,
            )
            print(render_entry(xlarge_entry))
        hetero_entry = None
        hetero_scalar_entry = None
        if not arguments.skip_campaign_hetero:
            print(
                f"campaign benchmark: {arguments.campaign_households} "
                f"households x {HETERO_CAMPAIGN_DAYS} days (mixed town, "
                f"bucketed-fleet planning)"
            )
            hetero_entry = run_campaign_bench(
                num_households=arguments.campaign_households,
                num_days=HETERO_CAMPAIGN_DAYS,
                seed=arguments.seed,
                town="mixed",
            )
            print(render_entry(hetero_entry))
            hetero_failures: list[str] = []
            _hetero_backend_gate(
                "campaign_hetero", hetero_entry.as_row(), hetero_failures
            )
            if hetero_failures:
                for failure in hetero_failures:
                    print(f"campaign FAILURE: {failure}", file=sys.stderr)
                return 1
            print(
                "campaign benchmark: mixed town, scalar-planning reference "
                "(the pre-bucketing fallback path)"
            )
            hetero_scalar_entry = run_campaign_bench(
                num_households=arguments.campaign_households,
                num_days=HETERO_CAMPAIGN_DAYS,
                seed=arguments.seed,
                planning="scalar",
                town="mixed",
            )
            print(render_entry(hetero_scalar_entry))
            # Bucketing is an optimisation, not a behaviour change: the
            # bucketed fleet must realise the identical campaign to the
            # scalar per-household loop it replaces.
            if hetero_scalar_entry.result.rows() != hetero_entry.result.rows():
                print(
                    "campaign FAILURE: mixed-town scalar and bucketed "
                    "planning diverged",
                    file=sys.stderr,
                )
                return 1
            hetero_speedup = (
                hetero_scalar_entry.result.planning_seconds
                / hetero_entry.result.planning_seconds
            )
            print(
                f"hetero_planning_speedup (scalar/bucketed): "
                f"{hetero_speedup:.1f}x"
            )
            if hetero_speedup < HETERO_MIN_PLANNING_SPEEDUP:
                print(
                    f"campaign FAILURE: hetero planning speedup "
                    f"{hetero_speedup:.1f}x below the "
                    f"{HETERO_MIN_PLANNING_SPEEDUP:.1f}x acceptance floor",
                    file=sys.stderr,
                )
                return 1
        campaign_report = render_entry(columnar_entry)
        if scalar_entry is not None:
            campaign_report += "\n\n" + render_entry(scalar_entry)
        campaign_report += "\n\n" + render_entry(lazy_entry)
        campaign_report += "\n\n" + render_entry(array_entry)
        if large_entry is not None:
            campaign_report += "\n\n" + render_entry(large_entry)
        if xlarge_entry is not None:
            campaign_report += "\n\n" + render_entry(xlarge_entry)
        if hetero_entry is not None:
            campaign_report += "\n\n" + render_entry(hetero_entry)
        if hetero_scalar_entry is not None:
            campaign_report += "\n\n" + render_entry(hetero_scalar_entry)
        campaign_report_path = report_dir / "campaign_pipeline.txt"
        campaign_report_path.write_text(campaign_report + "\n", encoding="utf-8")
        campaign_json_path = write_campaign_json(
            arguments.campaign_json, columnar_entry, scalar_entry,
            seed=arguments.seed, lazy=lazy_entry, lazy_large=large_entry,
            array=array_entry, xlarge=xlarge_entry, hetero=hetero_entry,
            hetero_scalar=hetero_scalar_entry,
        )
        print(f"wrote {campaign_report_path}")
        print(f"wrote {campaign_json_path}")

    if not arguments.skip_serving and not arguments.campaign_only:
        print(
            f"serving benchmark: {SERVING_REQUESTS} requests x "
            f"{SERVING_HOUSEHOLDS} households (max_batch={SERVING_MAX_BATCH}, "
            f"max_wait={SERVING_MAX_WAIT}s, coalesced vs sequential)"
        )
        serving_entry = run_serving_bench()
        print(serving_entry.render())
        pass_budget = -(-SERVING_REQUESTS // SERVING_MAX_BATCH)  # ceil
        if serving_entry.kernel_passes > pass_budget:
            print(
                f"serving FAILURE: {serving_entry.kernel_passes} kernel passes "
                f"exceed the budget of {pass_budget}",
                file=sys.stderr,
            )
            return 1
        if serving_entry.speedup < SERVING_MIN_SPEEDUP:
            print(
                f"serving FAILURE: speedup {serving_entry.speedup:.2f}x below "
                f"the {SERVING_MIN_SPEEDUP:.1f}x acceptance floor",
                file=sys.stderr,
            )
            return 1
        serving_report_path = report_dir / "serving_throughput.txt"
        serving_report_path.write_text(serving_entry.render() + "\n", encoding="utf-8")
        serving_json_path = write_serving_json(
            arguments.serving_json, serving_entry, seed=arguments.seed
        )
        print(f"wrote {serving_report_path}")
        print(f"wrote {serving_json_path}")

    if not arguments.skip_overload and not arguments.campaign_only:
        print(
            f"overload benchmark: {OVERLOAD_MAX_QUEUE * OVERLOAD_BURST_FACTOR} "
            f"requests burst at {OVERLOAD_BURST_FACTOR}x a "
            f"{OVERLOAD_MAX_QUEUE}-slot admission queue "
            f"({OVERLOAD_HOUSEHOLDS} households each)"
        )
        overload_entry = run_overload_bench()
        print(overload_entry.render())
        overload_failures: list[str] = []
        _overload_gates("overload", overload_entry.as_row(), overload_failures)
        if overload_failures:
            for failure in overload_failures:
                print(f"overload FAILURE: {failure}", file=sys.stderr)
            return 1
        overload_report_path = report_dir / "overload_admission.txt"
        overload_report_path.write_text(
            overload_entry.render() + "\n", encoding="utf-8"
        )
        overload_json_path = write_overload_json(
            arguments.overload_json, overload_entry, seed=arguments.seed
        )
        print(f"wrote {overload_report_path}")
        print(f"wrote {overload_json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
