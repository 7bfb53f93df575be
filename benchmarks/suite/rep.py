"""One rep of one workload, in a process of its own.

``python -m benchmarks.suite.rep JOB.json`` — the driver (``harness``)
writes the job file and reads the result file.  A fresh process per rep
is the suite's core rule: the worker pool's per-task cost has two regimes
a process can switch between and then keeps, so reps inside one process
are not independent samples (README, "Run discipline").

Job modes:

``rep``        warm, start, timed run, snapshot, stop, check; with
               ``trace`` the public layer methods are wrapped first and
               per-layer metrics are derived from the spans.
``setup``      warm and start only — an extra ``setup_s`` sample for
               workloads whose reps are too long to repeat.
``reference``  the workload's independent reference answers.
``resession``  two sessions back to back in this process; reports the
               second/first wall ratio (``runtime.resession_ratio``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict


def _cpu_tree_s() -> float:
    """User+sys CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def run_rep(job: Dict[str, Any]) -> Dict[str, Any]:
    from . import tracer, workloads

    recorder = None
    if job["trace"]:
        recorder = tracer.Recorder()
        tracer.install(recorder)
    workdir = Path(job["workdir"])
    workload = workloads.build(job["inputs"], workdir, recorder)
    # Heavy references (the serial training loop) come from their own
    # subprocess via a file; cheap ones are computed here, in set-up.
    if job.get("ref"):
        ref = json.loads(Path(job["ref"]).read_text())
    else:
        ref = workload.reference()
    if job.get("break_reference"):
        workload.break_reference(ref)
    workload.ref = ref
    workload.warm()
    workload.start()
    rec = workload.rec
    cpu0 = _cpu_tree_s()
    t0 = time.monotonic()
    # CLOCK_MONOTONIC is system-wide on Linux, so the driver's spawn
    # stamp and this one are comparable.
    result: Dict[str, Any] = {"setup_s": t0 - job["spawned_at"]}
    if job["mode"] == "setup":
        workload.stop()
        return result
    with rec.span(tracer.ROOT):
        outputs = workload.run()
    wall_s = time.monotonic() - t0
    snap = workload.snapshot()
    workload.stop()
    cpu_s = _cpu_tree_s() - cpu0
    # Read before check(): replaying the journal would otherwise
    # set the peak.
    peak_rss_mb = _maxrss_mb(resource.RUSAGE_SELF)
    errors = workload.check(outputs, snap, ref)
    units = job["inputs"]["units"]
    result.update({
        "wall_s": wall_s,
        "units_per_s": units / wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": units,
    })
    if recorder is None:
        result["untraced_layers"] = workload.untraced_layers(outputs)
    else:
        spans = recorder.summary()
        layers = workload.layer_metrics(spans, snap, outputs, ref, wall_s)
        if job["inputs"].get("backend") == "workers":
            layers["workers.child_peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
        errors += workload.check_layers(layers)
        result["layers"] = layers
        result["spans"] = spans
        if job.get("trace_out"):
            recorder.write_jsonl(job["trace_out"], job["run_id"])
    result["errors"] = errors
    result["failed"] = units if errors else 0
    return result


def run_reference(job: Dict[str, Any]) -> Dict[str, Any]:
    from . import workloads

    return workloads.build(job["inputs"], Path(job["workdir"])).reference()


def run_resession(job: Dict[str, Any]) -> Dict[str, Any]:
    from . import workloads

    walls = []
    for i in range(2):
        workload = workloads.build(job["inputs"], Path(job["workdir"]) / str(i))
        workload.ref = workload.reference()
        workload.start()
        t0 = time.monotonic()
        outputs = workload.run()
        walls.append(time.monotonic() - t0)
        workload.stop()
        if not outputs["exact"]:
            raise RuntimeError("resession: wrong results")
    return {"walls": walls, "ratio": walls[1] / walls[0]}


MODES = {
    "rep": run_rep, "setup": run_rep,
    "reference": run_reference, "resession": run_resession,
}


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    result = MODES[job["mode"]](job)
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    sys.stderr.flush()
    # Everything is stopped and the result is on disk; skipping the
    # interpreter's teardown of a 100k-task heap saves ~1 s per rep.
    os._exit(code)
