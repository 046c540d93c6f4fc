"""Benchmark of the three applications over the LMFAO engine.

Run from the repository root::

    python3 perfbench/run.py --workload lr_favorita --seed 1 --seconds 10 --trace 0

One client runs the workload's application in a closed loop for
``--seconds`` seconds (at least one run), each run through the
application's public entry point. Every run is checked against DuckDB
outside the timed region; a run that raises or fails its check counts
as failed. Between runs Spark's cache is cleared and the inputs are
re-warmed. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run also writes its spans to
``.bench_out/trace-<workload>-seed<seed>.json``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    missing = [d for d in ("src/repro", "jobs/jobs_features.py") if not (ROOT / d).exists()]
    if missing:
        print(f"perfbench: engine sources missing from the checkout: {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]
    import session

    session.configure_environment()
    from harness import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        session.shutdown_jvm()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
