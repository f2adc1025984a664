"""Command-line interface for running the reproduction's experiments.

Usage (after ``pip install -e .``)::

    python -m repro list                 # list the registered experiments
    python -m repro run E2               # run one experiment and print its report
    python -m repro run all              # run every experiment (slow but complete)
    python -m repro quickstart           # run the prototype negotiation end to end
    python -m repro backends             # list the negotiation backends
    python -m repro serve                # start the negotiation HTTP server

The CLI is a thin wrapper over :mod:`repro.experiments`; anything it prints
can also be produced programmatically (see the examples/ directory).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import format_key_values, format_table
from repro.experiments import EXPERIMENTS, get_experiment


def _render_result(result: object) -> str:
    """Best-effort rendering of an experiment result object."""
    render = getattr(result, "render", None)
    if callable(render):
        return render()
    rows = getattr(result, "rows", None)
    if callable(rows):
        return format_table(rows())
    summary = getattr(result, "summary", None)
    if callable(summary):
        return format_key_values(summary())
    return repr(result)


def command_list() -> int:
    """Print the experiment registry."""
    rows = [
        {
            "id": info.experiment_id,
            "paper artefact": info.paper_artefact,
            "description": info.description,
        }
        for info in EXPERIMENTS.values()
    ]
    print(format_table(rows, title="Registered experiments"))
    return 0


def command_run(experiment_id: str) -> int:
    """Run one experiment (or all of them) and print the report(s)."""
    if experiment_id.lower() == "all":
        exit_code = 0
        for info in EXPERIMENTS.values():
            print("=" * 72)
            print(f"{info.experiment_id} — {info.description}")
            print("=" * 72)
            try:
                print(_render_result(info.runner()))
            except Exception as error:  # pragma: no cover - defensive CLI path
                print(f"experiment {info.experiment_id} failed: {error}", file=sys.stderr)
                exit_code = 1
            print()
        return exit_code
    try:
        info = get_experiment(experiment_id.upper())
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"{info.experiment_id} — {info.description}")
    print(_render_result(info.runner()))
    return 0


def command_quickstart(backend: str = "auto") -> int:
    """Run the calibrated prototype negotiation and print its summary."""
    from repro.api import BackendError, run, scenario

    try:
        result = run(scenario().paper_prototype().build(), backend=backend, seed=0)
    except BackendError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(format_key_values(result.summary()))
    print()
    print(f"backend:            {result.metadata.get('backend', backend)}")
    print("overuse trajectory: "
          + ", ".join(f"{v:.2f}" for v in result.overuse_trajectory()))
    print("reward @ 0.4:       "
          + ", ".join(f"{v:.2f}" for v in result.reward_trajectory(0.4)))
    return 0


def command_backends() -> int:
    """Print the negotiation backends and the serving layer."""
    from repro.api.engine import BACKENDS

    rows = [
        {"backend": name, "engine": type(engine).__name__}
        for name, engine in sorted(BACKENDS.items())
    ]
    print(format_table(rows, title="Negotiation backends"))
    print()
    print(
        "serving: python -m repro serve exposes backend='auto' over HTTP with\n"
        "request-coalescing micro-batching (submit/status/result/stream/metrics)."
    )
    return 0


def command_serve(
    host: str,
    port: int,
    max_batch: int,
    max_wait: float,
    workers: Optional[int],
    state_dir: Optional[str],
    max_queue: Optional[int],
    rate_limit: Optional[float],
    default_deadline: Optional[int],
    watchdog_timeout: Optional[float],
) -> int:
    """Run the negotiation server until interrupted."""
    import asyncio

    from repro.serve.server import NegotiationServer

    server = NegotiationServer(
        host=host,
        port=port,
        max_batch=max_batch,
        max_wait=max_wait,
        workers=workers,
        state_dir=state_dir,
        max_queue=max_queue,
        rate_limit=rate_limit,
        default_deadline_ms=default_deadline,
        watchdog_timeout=watchdog_timeout,
    )
    try:
        asyncio.run(server.run_forever())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Agents Negotiating for Load Balancing of Electricity Use'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the registered experiments")
    run_parser = subparsers.add_parser("run", help="run an experiment by id (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. E2, or 'all'")
    quickstart_parser = subparsers.add_parser(
        "quickstart", help="run the prototype negotiation"
    )
    quickstart_parser.add_argument(
        "--backend", default="auto",
        help="negotiation backend (auto, object, vectorized, sharded; default auto)",
    )
    subparsers.add_parser("backends", help="list the negotiation backends")
    serve_parser = subparsers.add_parser(
        "serve", help="serve negotiations over HTTP with request coalescing"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8731,
        help="bind port; 0 lets the OS pick (default 8731)",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=8,
        help="requests coalesced into one kernel pass (default 8)",
    )
    serve_parser.add_argument(
        "--max-wait", type=float, default=0.05,
        help="seconds a request may wait for batch-mates (default 0.05)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None,
        help="negotiation worker threads (default min(4, cpu count))",
    )
    serve_parser.add_argument(
        "--state-dir", default=None,
        help="directory persisting finished sessions as JSON and the "
             "in-flight journal (default: none — no persistence, no "
             "restart recovery)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=None,
        help="admission bound: maximum accepted-but-unfinished requests; "
             "beyond it POST /submit answers 429 with Retry-After "
             "(default: unbounded)",
    )
    serve_parser.add_argument(
        "--rate-limit", type=float, default=None,
        help="sustained admissions per second (token bucket; default: none)",
    )
    serve_parser.add_argument(
        "--default-deadline", type=int, default=None,
        help="latency budget in milliseconds applied to requests that do "
             "not set deadline_ms themselves (default: none)",
    )
    serve_parser.add_argument(
        "--watchdog-timeout", type=float, default=600.0,
        help="seconds before a stuck worker batch's sessions are failed "
             "cleanly (default 600; 0 disables the watchdog)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "list":
        return command_list()
    if arguments.command == "run":
        return command_run(arguments.experiment)
    if arguments.command == "quickstart":
        return command_quickstart(arguments.backend)
    if arguments.command == "backends":
        return command_backends()
    if arguments.command == "serve":
        return command_serve(
            host=arguments.host,
            port=arguments.port,
            max_batch=arguments.max_batch,
            max_wait=arguments.max_wait,
            workers=arguments.workers,
            state_dir=arguments.state_dir,
            max_queue=arguments.max_queue,
            rate_limit=arguments.rate_limit,
            default_deadline=arguments.default_deadline,
            watchdog_timeout=(
                arguments.watchdog_timeout if arguments.watchdog_timeout > 0 else None
            ),
        )
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
