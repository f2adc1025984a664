"""The ``serve_mixed`` workload: an open loop against ``python -m repro serve``.

The server runs with its default flags (``--port 0`` aside) in a subprocess
started through ``serve_boot.py``.  One generator thread sends reward-table
requests for 200-household towns on a fixed schedule at :data:`RATE` per
second over at most ``min(2, nproc)`` connections: seven in eight cycle over
8 hot towns x 8 betas, every eighth is a town never seen before.  A
request's latency runs from the moment it was *due* to the ``finished_at``
the server records, so a stalled server also charges the requests queued
behind the stall.  Statuses are collected after the schedule ends.

Nothing from ``repro`` (or numpy, whose BLAS starts threads) is imported in
this process before the schedule has ended: the generator's thread count is
checked against ``nproc``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOOT = HERE / "serve_boot.py"

#: Requests per second.  On a 2-core machine 40/s saturated the server (the
#: backlog grew through the run) and 30/s was at the edge; 20/s holds a flat
#: queue with room for a slower machine.
RATE = 20.0
HOUSEHOLDS = 200
HOT_TOWNS = 8
BETAS = tuple(1.0 + 0.5 * index for index in range(8))
FRESH_EVERY = 8
#: At least ten requests lie beyond p95.
MIN_REQUESTS = 200
#: A run whose generator fell further behind its schedule than this is
#: invalid: its latencies would measure the generator, not the server.
LATE_BOUND_S = 0.5
#: Fresh towns whose served results are re-computed solo, besides every hot
#: (town, beta) pair.
FRESH_SAMPLE = 8
#: Server starts per untraced run; ``setup_s`` is their median.
SET_UPS = 5
HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
COLLECT_TIMEOUT_S = 90.0
TERMINAL = ("done", "failed", "expired")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def schedule(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` request bodies, each tagged ``hot`` or ``fresh``."""
    hot_towns = [seed * 1000 + town for town in range(HOT_TOWNS)]
    bodies: list[tuple[str, dict]] = []
    hot = fresh = 0
    for index in range(count):
        if index % FRESH_EVERY == FRESH_EVERY - 1:
            kind, town, beta = "fresh", seed * 1000 + HOT_TOWNS + fresh, BETAS[fresh % len(BETAS)]
            fresh += 1
        else:
            pair = hot % (HOT_TOWNS * len(BETAS))
            kind, town, beta = "hot", hot_towns[pair % HOT_TOWNS], BETAS[pair // HOT_TOWNS]
            hot += 1
        bodies.append(
            (kind, {"scenario": {"households": HOUSEHOLDS, "seed": town, "beta": beta}})
        )
    return bodies


class Server:
    """One ``repro serve`` subprocess: started, health-checked, stopped."""

    def __init__(self, workdir: Path, tag: str, trace: bool) -> None:
        self.report_path = workdir / f"{tag}.report.json"
        self.trace_path = workdir / f"{tag}.spans.ndjson" if trace else None
        self.out_path = workdir / f"{tag}.out"
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Start the server; seconds until its first healthy ``/healthz``."""
        for stale in (self.report_path, self.out_path):
            stale.unlink(missing_ok=True)
        command = [sys.executable, str(BOOT), str(self.report_path)]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        command += ["--", "--host", HOST, "--port", "0"]
        started = time.perf_counter()
        with open(self.out_path, "wb") as out:
            self.process = subprocess.Popen(
                command, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT
            )
        deadline = started + START_TIMEOUT_S
        while not self.port:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.out_path.read_text()[-2000:]}")
            for line in self.out_path.read_text(errors="replace").splitlines():
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        while not self._healthy():
            if time.perf_counter() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.002)
        return time.perf_counter() - started

    def _healthy(self) -> bool:
        try:
            return asyncio.run(http(self.port, "GET", "/healthz"))[0] == 200
        except OSError:
            return False

    def stop(self) -> dict:
        """SIGINT the server, wait for it, and return its report."""
        if self.process is None:
            return {}
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None
        if not self.report_path.exists():
            return {}
        return json.loads(self.report_path.read_text())


async def http(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange (the server closes every connection)."""
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(content) if content else {}


class Generator:
    """The open loop: one thread, at most ``connections`` sockets at a time."""

    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.connections = connections
        self.open = 0
        self.max_open = 0
        self.max_threads = 0
        self.late_max = 0.0

    async def _call(self, limit: asyncio.Semaphore, method: str, path: str,
                    body: dict | None = None, due: float | None = None):
        async with limit:
            if due is not None:
                self.late_max = max(self.late_max, asyncio.get_running_loop().time() - due)
            self.open += 1
            self.max_open = max(self.max_open, self.open)
            self.max_threads = max(self.max_threads, thread_count())
            try:
                return await http(self.port, method, path, body)
            finally:
                self.open -= 1

    async def _run(self, bodies: list[dict]) -> tuple[list[float], list]:
        limit = asyncio.Semaphore(self.connections)
        loop = asyncio.get_running_loop()
        lead = 0.05
        first_mono, first_epoch = loop.time() + lead, time.time() + lead
        tasks, due_epochs = [], []
        for index, body in enumerate(bodies):
            due = first_mono + index / RATE
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_max = max(self.late_max, loop.time() - due)
            due_epochs.append(first_epoch + index / RATE)
            tasks.append(asyncio.create_task(self._call(limit, "POST", "/submit", body, due)))
        return due_epochs, await asyncio.gather(*tasks)

    def send(self, bodies: list[dict]) -> tuple[list[float], list]:
        """Send ``bodies`` on schedule; their due times and submit answers."""
        return asyncio.run(self._run(bodies))

    async def _collect(self, session_ids: list[str], results: set[str]) -> dict:
        limit = asyncio.Semaphore(self.connections)
        views: dict[str, dict] = {}
        deadline = time.time() + COLLECT_TIMEOUT_S
        pending = list(session_ids)
        while pending and time.time() < deadline:
            answers = await asyncio.gather(*(
                self._call(
                    limit, "GET",
                    f"/result/{sid}" if sid in results else f"/status/{sid}",
                )
                for sid in pending
            ))
            for sid, (status, view) in zip(pending, answers):
                if status == 200 and view.get("state") in TERMINAL:
                    views[sid] = view
            pending = [sid for sid in pending if sid not in views]
            if pending:
                await asyncio.sleep(0.05)
        return views

    def collect(self, session_ids: list[str], results: set[str] = frozenset()) -> dict:
        """Terminal views by session id (with the payload for ``results``)."""
        return asyncio.run(self._collect(session_ids, set(results)))

    def metrics(self) -> dict:
        return asyncio.run(http(self.port, "GET", "/metrics"))[1]


def run_phase(seed: int, seconds: float, workdir: Path, tag: str, trace: bool,
              set_ups: int) -> dict:
    """Start the server ``set_ups`` times, warm it, drive the open loop once."""
    connections = min(2, nproc())
    setup_s = []
    for attempt in range(set_ups - 1):
        server = Server(workdir, f"{tag}-setup{attempt}", trace=False)
        try:
            setup_s.append(server.start())
        finally:
            server.stop()
    server = Server(workdir, tag, trace=trace)
    try:
        setup_s.append(server.start())
        generator = Generator(server.port, connections)
        plan = schedule(seed, max(MIN_REQUESTS, int(RATE * seconds)))
        # Warm-up: one request per hot town fills the population cache a
        # long-running server would hold; it is not part of the timed loop.
        warm = [body for kind, body in plan if kind == "hot"][:HOT_TOWNS]
        _due, answers = generator.send(warm)
        generator.collect([view["session_id"] for _status, view in answers if _status == 202])
        generator.late_max = 0.0
        due_epochs, answers = generator.send([body for _kind, body in plan])
        late_max = generator.late_max
        sample, seen = [], set()
        fresh_taken = 0
        for index, (kind, body) in enumerate(plan):
            key = (body["scenario"]["seed"], body["scenario"]["beta"])
            if kind == "hot" and key not in seen:
                seen.add(key)
                sample.append(index)
            elif kind == "fresh" and fresh_taken < FRESH_SAMPLE:
                fresh_taken += 1
                sample.append(index)
        ids = [view.get("session_id") if status == 202 else None for status, view in answers]
        views = generator.collect(
            [sid for sid in ids if sid], {ids[index] for index in sample if ids[index]}
        )
        collected_at = time.time()
        server_metrics = generator.metrics()
    finally:
        report = server.stop()
    if generator.max_threads > nproc() or generator.max_open > nproc():
        raise RuntimeError(
            f"generator used {generator.max_threads} threads and "
            f"{generator.max_open} connections on {nproc()} cores"
        )
    records = []
    for index, ((kind, body), due, sid) in enumerate(zip(plan, due_epochs, ids)):
        view = views.get(sid, {}) if sid else {}
        done = view.get("state") == "done"
        records.append({
            "kind": kind,
            "body": body,
            "done": done,
            "state": view.get("state", "refused" if sid is None else "unfinished"),
            "latency_s": (view["finished_at"] if done else collected_at) - due,
            "queue_wait_s": (view["started_at"] - view["submitted_at"]) if done else None,
            "service_s": (view["finished_at"] - view["started_at"]) if done else None,
            "payload": view.get("result") if index in sample else None,
        })
    return {
        "setup_s": setup_s,
        "records": records,
        "sample": sample,
        "late_max_s": late_max,
        "max_threads": generator.max_threads,
        "max_connections": generator.max_open,
        "server_metrics": server_metrics,
        "server_report": report,
    }


def check_sample(phase: dict) -> set[int]:
    """Indices of sampled requests whose served payload differs from a solo run."""
    from repro import api
    from repro.serve.schemas import ServeRequest, result_payload

    cache: dict = {}
    mismatched = set()
    for index in phase["sample"]:
        record = phase["records"][index]
        if not record["done"]:
            continue  # already counted as failed
        request = ServeRequest.from_mapping(record["body"])
        scenario = request.scenario.build_scenario(cache)
        solo = result_payload(api.run(scenario, backend=request.backend, config=request.config))
        if json.dumps(solo, sort_keys=True) != json.dumps(record["payload"], sort_keys=True):
            mismatched.add(index)
    return mismatched
