"""Recompute ``reference.json``: campaign rows through a second execution path.

Every engine mode is bit-identical by contract, so the rows a benchmark run
must reproduce are computed here on a *different* path than the one the
workload takes -- the ``vectorized`` backend with the rounds and hand-off
modes flipped -- and stored as per-day digests::

    python3 perfbench/reference.py --workload campaign_default --seeds 0 1 2 3

A seed takes about 5 s on ``campaign_default`` and 2 min on ``campaign_scale``
(object rounds over 50k households) on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from campaign import CONFIGS, build_planner, row_digest, run_campaign  # noqa: E402

#: The other path: the workload's own config with rounds and hand-off
#: flipped, on the ``vectorized`` backend instead of ``auto`` (``sharded``).
ALTERNATIVES = {
    "campaign_default": dict(materialise="lazy", rounds="array"),
    "campaign_scale": {**CONFIGS["campaign_scale"], "materialise": "eager", "rounds": "object"},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ALTERNATIVES), nargs="+",
                        default=sorted(ALTERNATIVES))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    arguments = parser.parse_args()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in arguments.workload:
        reference[workload] = {}  # digests of seeds not recomputed may be stale
        for seed in arguments.seeds:
            result = run_campaign(build_planner(workload, seed), ALTERNATIVES[workload],
                                  "vectorized")
            if "failed_day" in result.metadata:
                raise RuntimeError(f"{workload} seed {seed}: {result.metadata['failure']}")
            reference[workload][str(seed)] = [row_digest(row) for row in result.rows()]
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {result.days_negotiated} days negotiated",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
