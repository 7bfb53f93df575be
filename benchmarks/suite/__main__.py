"""``PYTHONPATH=src python -m benchmarks.suite run|compare`` (see README.md)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import compare, harness, spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run every workload, check outputs, print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=Path, default=harness.DEFAULT_OUT,
                     help="directory for the snapshot, history.jsonl and traces")
    run.add_argument("--seconds", type=float, default=12.0,
                     help="untraced measuring time per workload")
    run.add_argument("--smoke", action="store_true",
                     help=f"sizes / {spec.SMOKE_DIVISOR}, one rep (CI)")
    run.add_argument("--workload", action="append", choices=sorted(spec.WORKLOAD_BY_NAME),
                     help="only this workload (repeatable)")
    run.add_argument("--no-trace", action="store_true",
                     help="skip the traced rep and the side runs")
    cmp_ = sub.add_parser("compare", help="compare two snapshots by the bounds")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare.main(args.a, args.b)
    names = args.workload or [w.name for w in spec.WORKLOADS]
    result = harness.run_all(
        names, args.seed, 0.0 if args.smoke else args.seconds, args.out,
        smoke=args.smoke, traced=not args.no_trace,
    )
    failed = sum(rec["failed"] for rec in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
