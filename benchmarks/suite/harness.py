"""Driver side: spawn reps, aggregate, wrap results in the envelope.

One driver process runs workloads one after another; every rep, side
run and reference is a fresh subprocess (see ``rep.py``).  The driver
imports nothing from ``repro``, so a checkout without ``src/`` fails in
the first subprocess and the driver exits non-zero without a result.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import spec

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
DEFAULT_OUT = SUITE_DIR / "out"

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
#: Hard limit for any one subprocess; the external driver allows 180 s
#: for the whole command.
SUBPROCESS_TIMEOUT_S = 150
#: Every run takes at least this many ``setup_s`` samples, topping up
#: with set-up-only subprocesses when the workload's reps are too long
#: to repeat within ``--seconds``.
MIN_SETUP_SAMPLES = 3


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


class Spawner:
    """Runs ``rep.py`` jobs under one scratch directory, one at a time."""

    def __init__(self, workroot: Path) -> None:
        self.workroot = workroot
        self.n = 0
        #: Every measured rep so far (untraced, traced and side runs):
        #: all of them are checked, so all count as attempted units.
        self.reps: List[Dict[str, Any]] = []

    def run(self, mode: str, inputs: Dict[str, Any], **job: Any) -> Dict[str, Any]:
        self.n += 1
        workdir = self.workroot / f"job{self.n}"
        workdir.mkdir(parents=True)
        job_path, out_path = workdir / "job.json", workdir / "result.json"
        job.update(mode=mode, inputs=inputs, workdir=str(workdir / "w"),
                   out=str(out_path))
        job.setdefault("trace", False)
        (workdir / "w").mkdir()
        # Own session, so a failed rep's worker children die with it.
        job["spawned_at"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite.rep", str(job_path)],
            cwd=ROOT, env=_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        except BaseException:
            _kill_group(proc)
            raise
        if proc.returncode != 0:
            _kill_group(proc)
            raise RuntimeError(
                f"{mode} subprocess for {inputs['kind']} exited "
                f"{proc.returncode}:\n{stderr[-2000:]}"
            )
        result = json.loads(out_path.read_text())
        result["process_s"] = time.monotonic() - job["spawned_at"]
        shutil.rmtree(workdir / "w", ignore_errors=True)
        if mode == "rep":
            self.reps.append(result)
        return result


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _quartiles(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _one_more(n: int, elapsed: float, seconds: float) -> bool:
    """Whether to run another rep after ``n`` reps took ``elapsed`` seconds.

    Stops on an odd count that leaves no room for two more, so the
    median is one measured value: some workloads are bimodal (a rep now
    and then runs in a faster regime) and the mean of two would sit
    between the modes.  The per-rep cost is re-estimated after every rep,
    so a slow spell shortens the run instead of overrunning ``seconds``.
    """
    fit = int((seconds - elapsed) // (elapsed / n))
    return fit >= 2 or (fit >= 1 and n % 2 == 0)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    trace_dir: Optional[Path] = None,
    break_reference: bool = False,
) -> Dict[str, Any]:
    """Run one workload; returns its result record.

    Untraced reps: as many as fit ``seconds`` (at least one, an odd
    number unless a slow spell cut the run short); end-to-end metrics
    come only from them.  With ``traced`` one more rep runs under the span recorder,
    followed by the workload's side runs, and fills ``per_layer``.
    ``break_reference`` corrupts the reference answers — the smoke test
    uses it to prove the correctness check can fail.
    """
    inputs = spec.make_inputs(name, seed, smoke)
    workroot = DEFAULT_OUT / "work" / f"{os.getpid()}-{name}"
    shutil.rmtree(workroot, ignore_errors=True)
    workroot.mkdir(parents=True)
    spawn = Spawner(workroot)
    try:
        ref_path = None
        if inputs["kind"] == "grid":
            # The serial training loop is too slow to repeat per rep.
            reference = spawn.run("reference", inputs)
            ref_path = workroot / "reference.json"
            ref_path.write_text(json.dumps(reference))
        common = {
            "ref": str(ref_path) if ref_path else None,
            "break_reference": break_reference,
        }

        t0 = time.monotonic()
        reps = [spawn.run("rep", inputs, **common)]
        while _one_more(len(reps), time.monotonic() - t0, seconds):
            reps.append(spawn.run("rep", inputs, **common))
        setup_samples = [r["setup_s"] for r in reps]
        while not traced and len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(spawn.run("setup", inputs, **common)["setup_s"])

        end_to_end = {
            m.name: _quartiles(
                setup_samples if m.name == "setup_s" else [r[m.name] for r in reps])
            for m in spec.END_TO_END
        }
        record: Dict[str, Any] = {
            "workload": name, "seed": seed, "smoke": smoke, "inputs": inputs,
            "end_to_end": end_to_end,
        }
        if traced:
            trace_out = None
            if trace_dir is not None:
                trace_dir.mkdir(parents=True, exist_ok=True)
                trace_out = str(trace_dir / f"trace-{name}.jsonl")
            rep = spawn.run(
                "rep", inputs, trace=True, trace_out=trace_out,
                run_id=f"{name}:{seed}", **common,
            )
            layers = dict(rep["layers"])
            for key in reps[0]["untraced_layers"]:
                layers[key] = statistics.median(
                    r["untraced_layers"][key] for r in reps)
            untraced_wall = end_to_end["wall_s"]["median"]
            layers["bench.trace_overhead_pct"] = (
                (rep["wall_s"] / untraced_wall - 1.0) * 100.0)
            layers.update(_side_runs(name, inputs, untraced_wall, spawn))
            record["per_layer"] = {
                m.name: float(layers.get(m.name, 0.0)) for m in spec.PER_LAYER
            }
            record["spans"] = rep["spans"]
            record["traced_rep"] = {
                k: rep[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
            }
        record["attempted"] = sum(r["attempted"] for r in spawn.reps)
        record["failed"] = sum(r["failed"] for r in spawn.reps)
        record["errors"] = sorted({e for r in spawn.reps for e in r["errors"]})
        record["failed_fraction"] = record["failed"] / record["attempted"]
        return record
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _side_runs(name, inputs, untraced_wall, spawn) -> Dict[str, float]:
    """Extra measurements that need a differently-configured process."""
    n = inputs["units"]
    out: Dict[str, float] = {}
    if name == "dispatch_100k_sim":
        on = spawn.run("rep", dict(inputs, runtime_tracing=True))
        out["tracing.overhead_pct"] = (on["wall_s"] / untraced_wall - 1.0) * 100.0
    elif name == "tiny_5k_workers":
        threads = spawn.run("rep", dict(inputs, backend="threads"))
        out["local.threads_us_per_task"] = threads["wall_s"] / n * 1e6
        out["workers.ipc_us_per_task"] = untraced_wall / n * 1e6
        out["workers.vs_threads_ratio"] = untraced_wall / threads["wall_s"]
        # Awaited all at once, at 2k tasks for the full-size workload:
        # verify_outputs grows faster than linearly in the awaited set
        # (19 s at 10k), and 2k is the size the re-session finding used.
        small = dict(inputs, units=max(1, 2 * n // 5), waves=1)
        sealed = spawn.run("rep", dict(small, verify_outputs=True), trace=True)
        out.update({
            k: v for k, v in sealed["layers"].items() if k.startswith("integrity.")
        })
        out["runtime.resession_ratio"] = spawn.run("resession", small)["ratio"]
    return out


# ----------------------------------------------------------------------
# Envelope and output files (the human command; the external driver
# reads only the last stdout line of run.py)
# ----------------------------------------------------------------------
def envelope(seed: int) -> Dict[str, Any]:
    """Where, when and on what the numbers were measured."""

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    import numpy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def run_all(
    names: List[str], seed: int, seconds: float, out_dir: Path,
    smoke: bool = False, traced: bool = True,
) -> Dict[str, Any]:
    """The one command: every workload, checked, every metric by name."""
    result = {"envelope": envelope(seed), "seconds": seconds, "smoke": smoke,
              "workloads": {}}
    for name in names:
        record = run_workload(
            name, seed, seconds, traced, smoke=smoke, trace_dir=out_dir)
        result["workloads"][name] = record
        print_record(record)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = result["envelope"]["utc"][:19].replace(":", "").replace("-", "")
    snapshot = out_dir / f"bench-{stamp}-seed{seed}.json"
    n = 1
    while snapshot.exists():  # never overwrite a snapshot
        n += 1
        snapshot = out_dir / f"bench-{stamp}-seed{seed}-{n}.json"
    snapshot.write_text(json.dumps(result, indent=1) + "\n")
    with open(out_dir / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(_history_line(result)) + "\n")
    print(f"\nwrote {snapshot}")
    return result


def _history_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """Envelope plus medians only: one compact line per run."""
    return {
        "envelope": result["envelope"],
        "smoke": result["smoke"],
        "workloads": {
            name: {
                "failed_fraction": rec["failed_fraction"],
                "end_to_end": {
                    k: v["median"] for k, v in rec["end_to_end"].items()},
                "per_layer": rec.get("per_layer", {}),
            }
            for name, rec in result["workloads"].items()
        },
    }


def print_record(record: Dict[str, Any]) -> None:
    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    print(f"\n== {record['workload']} (seed {record['seed']}) ==")
    for name, q in record["end_to_end"].items():
        print(f"  {name:<34} {q['median']:>14.6g} {units[name]:<6}"
              f" [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']}]")
    print(f"  {'failed_fraction':<34} {record['failed_fraction']:>14.6g} ratio "
          f" [{record['failed']} of {record['attempted']}]")
    for error in record["errors"]:
        print(f"  CHECK FAILED: {error}")
    for name, value in record.get("per_layer", {}).items():
        if value:
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
