"""Entry point for the external benchmark driver (see BENCHMARK.json).

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric of
``BENCHMARK.json`` with ``--trace 1``.  People use ``python -m
benchmarks.suite run`` instead, which runs all eight workloads (the
driver gets ``spec.DRIVER_WORKLOADS``) and keeps the envelope, quartiles
and traces.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

from benchmarks.suite import harness, spec  # noqa: E402 - needs the path above


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # A traced run measures layers, not end-to-end numbers: one untraced
    # rep (the base of bench.trace_overhead_pct) instead of --seconds' worth.
    record = harness.run_workload(
        args.workload, args.seed, 0.0 if args.trace else args.seconds,
        traced=bool(args.trace))
    harness.print_record(record)
    if args.trace:
        metrics = {
            m.name: {"value": record["per_layer"][m.name], "unit": m.unit}
            for m in spec.DRIVER_PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": record["end_to_end"][m.name]["median"], "unit": m.unit}
            for m in spec.END_TO_END
        }
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
