"""Start ``python -m repro serve`` from the benchmark, optionally traced.

``perfbench/serving.py`` runs this file as the server subprocess::

    python3 perfbench/serve_boot.py REPORT.json [--trace SPANS.ndjson] -- --port 0

It installs the layer wrappers when ``--trace`` is given, hands the arguments
after ``--`` to ``repro.cli.main(["serve", ...])`` and, when the server stops
on SIGINT, writes REPORT.json: the process's peak RSS and, traced, the
per-layer summary of its spans (which go to SPANS.ndjson).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    report_path, options, serve_args = argv[0], argv[1:split], argv[split + 1:]
    trace_path = options[options.index("--trace") + 1] if "--trace" in options else None
    # ``serving.py`` stops the server with SIGINT.  A process started in the
    # background by a non-interactive shell inherits SIGINT ignored, and Python
    # then never raises KeyboardInterrupt: restore the default handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if trace_path:
        from tracer import Tracer, install

        tracer = Tracer("serve_mixed")
        install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        report: dict = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        }
        if tracer is not None:
            from tracer import summarise

            report["layers"] = summarise(tracer.spans)
            tracer.write_ndjson(trace_path)
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
