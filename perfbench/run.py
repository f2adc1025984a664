"""The repository benchmark: campaigns and open-loop serving, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_default --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each exists, ``README.md`` here for
the metric definitions and the layer -> metric -> workload table):

* ``campaign_default`` -- 10k-household town, 14-day ``campaign()`` with no
  config: eager hand-off, object rounds, ``auto`` backend.
* ``campaign_scale`` -- 50k-household town, 14 days, the README's scale
  config (lazy, ``history_window=7``, no message log, array rounds).
* ``serve_mixed`` -- ``python -m repro serve`` under an open loop of
  200-household reward-table requests (``serving.py``).

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` is a separate run: one untraced and one traced
repetition, reporting the per-layer metrics and the tracing overhead.  Every
run checks its outputs; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record (raw
values, medians, environment fingerprint) goes to ``perfbench/results/``.
Exit codes: 0 correct, 1 a correctness failure, 2 no ``src/repro`` to
benchmark, 3 an invalid open-loop run (the generator fell behind).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import serving  # noqa: E402  (both stdlib only at import time)
import tracer  # noqa: E402

CAMPAIGN_WORKER = HERE / "campaign.py"
CAMPAIGN_WORKLOADS = ("campaign_default", "campaign_scale")
WORKLOADS = (*CAMPAIGN_WORKLOADS, "serve_mixed")
BATCHED_BACKENDS = ("vectorized", "sharded")
#: Repetitions per untraced campaign run: at least this many, more while
#: another one is expected to end within ``--seconds``.
MIN_CAMPAIGN_REPS = 2
MAX_CAMPAIGN_REPS = 5
REP_TIMEOUT_S = 150
#: The seed whose campaign rows every run must reproduce exactly; the
#: reference file also holds the rows of a few more seeds.
COMMITTED_SEED = 0
REFERENCE = HERE / "reference.json"

#: Metric names and units, as ``BENCHMARK.json`` declares them: an untraced
#: run reports exactly the end-to-end ones, a traced run the per-layer ones.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def fingerprint() -> dict:
    """What to compare before blaming the code for a moved number."""
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = commit = None
    if top is None or Path(top).resolve() != ROOT:
        commit = None  # not a git checkout of its own: the source digest identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": serving.nproc(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- campaigns ------------------------------------------------------------------


def campaign_rep(workload: str, seed: int, trace_path: Path | None) -> dict:
    command = [sys.executable, str(CAMPAIGN_WORKER), "--workload", workload,
               "--seed", str(seed)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    finished = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if finished.returncode != 0:
        raise RuntimeError(f"{workload} repetition failed:\n{finished.stderr[-4000:]}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def check_campaign(rep: dict, reference: list[str] | None) -> tuple[int, list[str]]:
    """Failed days of one repetition and what was wrong with them."""
    problems, failed = [], set()
    days = rep["days"]
    if rep["failed_day"] is not None:
        problems.append(f"day {rep['failed_day']} raised: {rep['failure']}")
        failed.update(range(len(days), rep["num_days"]))
    for index, day in enumerate(days):
        if not day["negotiated"]:
            continue
        if day["backend"] not in BATCHED_BACKENDS:
            problems.append(f"day {index} negotiated on {day['backend']!r}")
            failed.add(index)
        if not day["peak_after_kw"] <= day["peak_before_kw"]:
            problems.append(f"day {index} raised the peak")
            failed.add(index)
        if not day["reward_paid"] >= 0:
            problems.append(f"day {index} paid a negative reward")
            failed.add(index)
    if reference is not None:
        for index, day in enumerate(days):
            if index >= len(reference) or day["digest"] != reference[index]:
                problems.append(f"day {index} row differs from the reference")
                failed.add(index)
    if not any(day["negotiated"] for day in days):
        problems.append("no day was negotiated")
    return len(failed), problems


def run_campaign(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    references = json.loads(REFERENCE.read_text()).get(workload, {})
    reference = references.get(str(seed))
    reps: list[dict] = []
    started = time.perf_counter()
    if trace:
        reps.append(campaign_rep(workload, seed, None))
        reps.append(campaign_rep(workload, seed, RESULTS / f"{workload}-seed{seed}.spans.ndjson"))
    else:
        while len(reps) < MAX_CAMPAIGN_REPS:
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_CAMPAIGN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
            reps.append(campaign_rep(workload, seed, None))
    failed, problems = 0, []
    if reference is None and seed == COMMITTED_SEED:
        problems.append(f"{REFERENCE.name} holds no rows for the committed seed")
    for rep in reps:
        rep_failed, rep_problems = check_campaign(rep, reference)
        failed += rep_failed
        problems += rep_problems
    digests = {tuple(day["digest"] for day in rep["days"]) for rep in reps}
    attempted = sum(rep["num_days"] for rep in reps)
    if len(digests) > 1:
        problems.append("repetitions of one seed produced different rows")
        failed = attempted
    raw = {key: [rep[key] for rep in reps] for key in ("setup_s", "campaign_s", "peak_rss_mb")}
    outcome = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "reference_checked": reference is not None, "raw": raw,
    }
    if not trace:
        outcome["metrics"] = {
            "setup_s": statistics.median(raw["setup_s"]),
            "latency_p50_s": statistics.median(raw["campaign_s"]),
            # Two to five campaigns resolve no tail: the median is the
            # highest percentile they support.
            "latency_p95_s": statistics.median(raw["campaign_s"]),
            "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
            "success_share": 1 - failed / attempted,
        }
        return outcome
    plain, traced = reps
    days = traced["days"]
    hits = sum(day["cache_hits"] for day in days)
    lookups = hits + sum(day["cache_misses"] for day in days)
    metrics = layer_metrics(traced["layers"])
    metrics.update({
        "core.rounds_total": sum(day["rounds"] for day in days),
        "core.days_negotiated": sum(day["negotiated"] for day in days),
        "api.kernel_cache_hit_share": hits / lookups if lookups else 0.0,
        "tracing_overhead_share": traced["campaign_s"] / plain["campaign_s"],
        "tracing_uncovered_share": 1 - traced["covered_share"],
    })
    for backend in ("sharded", "vectorized", "object"):
        metrics[f"api.backend_days.{backend}"] = sum(day["backend"] == backend for day in days)
    if metrics["tracing_uncovered_share"] > 1 - tracer.MIN_COVERED_SHARE:
        print(f"tracer self-check: layer spans leave "
              f"{metrics['tracing_uncovered_share']:.1%} of campaign() uncovered",
              file=sys.stderr)
    outcome["metrics"] = metrics
    outcome["calls"] = traced["layers"]["calls"]
    return outcome


def layer_metrics(layers: dict) -> dict:
    """Every per-layer metric: the span summary, 0 where the workload sets none."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update((name, value) for name, value in layers.items() if name != "calls")
    metrics["agents.synthetic_population_calls"] = layers["calls"].get(
        "agents.synthetic_population", 0
    )
    return metrics


# -- serving --------------------------------------------------------------------


def serve_problems(phase: dict, mismatched: set[int]) -> tuple[int, list[str]]:
    failed = {index for index, record in enumerate(phase["records"]) if not record["done"]}
    problems = [f"{len(failed)} requests did not finish done"] if failed else []
    if mismatched:
        problems.append(f"{len(mismatched)} served results differ from solo runs")
    return len(failed | mismatched), problems


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        phases = [
            serving.run_phase(seed, seconds / 2, RESULTS, "serve-plain", False, set_ups=1),
            serving.run_phase(seed, seconds / 2, RESULTS, "serve-traced", True, set_ups=1),
        ]
    else:
        phases = [serving.run_phase(seed, seconds, RESULTS, "serve", False, serving.SET_UPS)]
    late_max = max(phase["late_max_s"] for phase in phases)
    failed, problems = 0, []
    for phase in phases:
        phase_failed, phase_problems = serve_problems(phase, serving.check_sample(phase))
        failed += phase_failed
        problems += phase_problems
    attempted = sum(len(phase["records"]) for phase in phases)
    outcome = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "valid": late_max <= serving.LATE_BOUND_S,
        "raw": [
            {
                "setup_s": phase["setup_s"],
                "latency_s": [record["latency_s"] for record in phase["records"]],
                "late_max_s": phase["late_max_s"],
                "max_threads": phase["max_threads"],
                "max_connections": phase["max_connections"],
                "server_metrics": phase["server_metrics"],
                "server_peak_rss_mb": phase["server_report"].get("peak_rss_mb"),
            }
            for phase in phases
        ],
    }
    latencies = [[record["latency_s"] for record in phase["records"]] for phase in phases]
    if not trace:
        (phase,) = phases
        outcome["metrics"] = {
            "setup_s": statistics.median(phase["setup_s"]),
            "latency_p50_s": serving.percentile(latencies[0], 0.50),
            "latency_p95_s": serving.percentile(latencies[0], 0.95),
            "peak_rss_mb": phase["server_report"]["peak_rss_mb"],
            "success_share": 1 - failed / attempted,
        }
        return outcome
    traced = phases[1]
    calls = traced["server_report"]["layers"]["calls"]
    served = traced["server_metrics"]
    done = [record for record in traced["records"] if record["done"]]
    builds = calls.get("serve.build_scenario", 0)
    metrics = layer_metrics(traced["server_report"]["layers"])
    metrics.update({
        "serve.queue_wait_p95_s": serving.percentile(
            [record["queue_wait_s"] for record in done], 0.95),
        "serve.service_p50_s": serving.percentile(
            [record["service_s"] for record in done], 0.50),
        "serve.batch_occupancy_mean": served["batch_occupancy"]["mean"],
        "serve.kernel_passes": served["kernel_passes"],
        "serve.solo_passes": served["solo_passes"],
        "serve.fused_cycle_share": (
            served["fused_kernel_cycles"] / served["lockstep_cycles"]
            if served["lockstep_cycles"] else 0.0
        ),
        "serve.population_cache_hit_share": (
            1 - metrics["agents.synthetic_population_calls"] / builds if builds else 0.0
        ),
        "serve.generator_late_max_s": late_max,
        "tracing_overhead_share": (
            serving.percentile(latencies[1], 0.50) / serving.percentile(latencies[0], 0.50)
        ),
    })
    outcome["metrics"] = metrics
    outcome["calls"] = calls
    return outcome


# -- entry point ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if workload in CAMPAIGN_WORKLOADS:
        outcome = run_campaign(workload, seed, seconds, trace)
    else:
        outcome = run_serve(seed, seconds, trace)
    declared = PER_LAYER if trace else END_TO_END
    if set(outcome["metrics"]) != set(declared):
        raise RuntimeError(
            f"{workload} reports {sorted(set(outcome['metrics']) ^ set(declared))} "
            "unlike BENCHMARK.json"
        )
    outcome["correct"] = not outcome["problems"]
    outcome["metrics"] = {
        name: {"value": value, "unit": declared[name]}
        for name, value in sorted(outcome["metrics"].items())
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": fingerprint(), "run_wall_s": time.perf_counter() - started,
        **outcome,
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"== {workload} (seed {seed}, trace {int(trace)}): "
          f"{outcome['attempted'] - outcome['failed']}/{outcome['attempted']} ok, "
          f"record in {path.relative_to(ROOT)}")
    for name, metric in outcome["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for problem in outcome["problems"]:
        print(f"   FAILED: {problem}")
    print(f"   environment: {json.dumps(record['environment'], sort_keys=True)}")
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workloads = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    outcomes = {
        workload: run_workload(workload, arguments.seed, arguments.seconds, bool(arguments.trace))
        for workload in workloads
    }
    if not all(outcome.get("valid", True) for outcome in outcomes.values()):
        print(f"invalid run: the open-loop generator ran more than "
              f"{serving.LATE_BOUND_S}s behind schedule", file=sys.stderr)
        return 3
    if len(outcomes) == 1:
        (outcome,) = outcomes.values()
        metrics = outcome["metrics"]
    else:
        metrics = {
            f"{workload}.{name}": metric
            for workload, outcome in outcomes.items()
            for name, metric in outcome["metrics"].items()
        }
    correct = all(outcome["correct"] for outcome in outcomes.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
        "failed": sum(outcome["failed"] for outcome in outcomes.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
