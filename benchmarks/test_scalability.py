"""Benchmark E9 — scalability in the number of Customer Agents."""

from __future__ import annotations

import time

import pytest

from repro.experiments.scalability import run_scalability, write_benchmark_json


def _write_report(directory, name: str, content: str) -> None:
    """Render the sweep to a scratch report.

    The sweeps' wall-clock columns change on every run, so unlike the other
    benchmark reports these are not written to ``benchmarks/reports/``: a
    test run leaves the tree clean.  ``benchmarks/run_bench.py`` writes the
    recorded ``E9_scalability_fast.txt``.
    """
    (directory / f"{name}.txt").write_text(content + "\n", encoding="utf-8")


def test_scalability_sweep(benchmark, tmp_path):
    result = benchmark.pedantic(
        run_scalability,
        kwargs={"sizes": (10, 25, 50, 100, 200), "seed": 0},
        iterations=1,
        rounds=1,
    )
    rows = result.rows()
    assert [row["num_households"] for row in rows] == [10, 25, 50, 100, 200]
    # Rounds stay bounded as the population grows (announcements are broadcast,
    # so the protocol does not degenerate with more customers).
    assert result.rounds_bounded(maximum=60)
    # Message volume grows roughly linearly with the number of customers.
    assert result.messages_scale_linearly(tolerance=1.0)
    # Every population size still achieves a peak reduction.
    assert all(row["peak_reduction_fraction"] > 0 for row in rows)
    _write_report(tmp_path, "E9_scalability", result.render())


def test_fast_scalability_sweep(tmp_path):
    """The vectorized fast path sweeps an order of magnitude further than the
    object path and reports the same negotiation trajectory at shared sizes."""
    result = run_scalability(sizes=(10, 50, 200, 1000), seed=0, fast=True)
    rows = result.rows()
    assert [row["num_households"] for row in rows] == [10, 50, 200, 1000]
    assert result.rounds_bounded(maximum=60)
    assert result.messages_scale_linearly(tolerance=1.0)
    assert all(row["peak_reduction_fraction"] > 0 for row in rows)
    # The machine-readable trajectory artefact round-trips.
    payload_path = write_benchmark_json(tmp_path / "bench.json", result, seed=0)
    assert payload_path.exists()
    _write_report(tmp_path, "E9_scalability_fast_ci", result.render())


def test_sharded_scalability_sweep(tmp_path):
    """The sharded runtime sweeps the same trajectory as the fast path and
    the JSON artefact records its shard count and the speedup entry."""
    fast = run_scalability(sizes=(50, 200), seed=0, fast=True)
    sharded = run_scalability(sizes=(50, 200), seed=0, backend="sharded", shards=2)
    assert sharded.path_label == "sharded"
    assert sharded.shards == 2
    # Bit-identical negotiation behaviour at every shared size.
    for fast_row, sharded_row in zip(fast.rows(), sharded.rows()):
        assert sharded_row["rounds"] == fast_row["rounds"]
        assert sharded_row["messages"] == fast_row["messages"]
        assert sharded_row["peak_reduction_fraction"] == fast_row["peak_reduction_fraction"]
    payload_path = write_benchmark_json(
        tmp_path / "bench.json", fast, seed=0, sharded_result=sharded
    )
    import json

    payload = json.loads(payload_path.read_text(encoding="utf-8"))
    assert payload["sharded_path"]["shards"] == 2
    assert payload["sharded_speedup_at_shared_max"]["num_households"] == 200
    _write_report(tmp_path, "E9_scalability_sharded_ci", sharded.render())


@pytest.mark.perf_smoke
def test_fast_path_200_households_within_budget():
    """Tier-1 perf guard: the 200-household fast-path negotiation must stay
    well under a generous wall-clock budget (it runs in ~10 ms; the budget
    leaves two orders of magnitude of headroom for slow CI machines)."""
    from repro.api import run
    from repro.core.scenario import synthetic_scenario

    scenario = synthetic_scenario(num_households=200, seed=0)
    start = time.perf_counter()
    result = run(scenario, backend="vectorized", seed=0)
    elapsed = time.perf_counter() - start
    assert result.metadata["backend"] == "vectorized"
    assert result.rounds >= 1
    assert result.peak_reduction_fraction > 0
    assert elapsed < 2.0, f"fast path took {elapsed:.2f}s for 200 households"


def test_single_negotiation_round_trip_cost(benchmark):
    """Micro-benchmark: one complete negotiation on a 50-household population."""
    from repro.api import run
    from repro.core.scenario import synthetic_scenario

    def run_once():
        scenario = synthetic_scenario(num_households=50, seed=0)
        return run(scenario, backend="object", seed=0)

    result = benchmark(run_once)
    assert result.rounds >= 1
    assert result.peak_reduction_fraction > 0
