"""Million-task streaming smoke: memory stays flat while tasks flow.

The batched-dispatch tentpole makes the 1M-task regime *fast*; this
bench proves it is also *memory-safe*.  With ``stream_completed=True``
the :class:`TaskGraph` frees finished tasks once every consumer is DONE,
and the checkpoint journal writes through a bounded buffer — so resident
memory must stay roughly flat as the task count grows, instead of
retaining O(n) completed-task state.

Tasks are submitted in waves (``compss_wait_on`` per wave, futures
dropped between waves) so the *client-side* future list is bounded too;
the interesting measurement is the runtime's retained state, sampled as
RSS after every wave.  RSS is also sampled before the first wave: the
growth over wave 1 divided by the wave size, ``live_kb_per_task``, is
what one in-flight task costs (a whole wave is live at once).

Two entry points:

* ``pytest benchmarks/bench_stream_1m.py`` — CI smoke.  Runs a reduced
  task count (default 200k, override with ``BENCH_STREAM_TASKS``) and
  fails if RSS growth between the first and last wave or the live
  per-task footprint exceeds its ceiling in
  ``benchmarks/perf_thresholds.json``, if fewer than 99% of tasks were
  freed, or if throughput regresses.
* ``python benchmarks/bench_stream_1m.py`` — the full 1M-task run;
  writes the machine-readable ``BENCH_stream.json`` to the repo root.
"""

import json
import os
import time
from pathlib import Path

from conftest import banner

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.simcluster import local_machine

REPO_ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS_PATH = Path(__file__).resolve().parent / "perf_thresholds.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_stream.json"

N_CORES = 16
WAVE = 50_000


@task(returns=int)
def tiny(x):
    return x + 1


def load_thresholds() -> dict:
    with open(THRESHOLDS_PATH) as fh:
        return json.load(fh)


def rss_mb() -> float:
    """Current resident set size in MiB (Linux /proc; 0.0 elsewhere)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_stream(n_tasks: int, journal_dir=None) -> dict:
    """Push ``n_tasks`` through a streaming session; sample RSS per wave.

    ``rss_growth_mb`` is measured from *after the first wave* (which
    pays one-off costs: code objects, allocator pools, the journal
    file handle) to the end of the run — that slope is what must stay
    flat for the 1M regime to be memory-safe.  ``live_kb_per_task`` is
    the growth *over* the first wave per task of that wave.
    """
    cfg = RuntimeConfig(
        cluster=local_machine(N_CORES),
        executor="simulated",
        tracing=False,
        graph=False,
        stream_completed=True,
        checkpoint_dir=str(journal_dir) if journal_dir else None,
        checkpoint_every=None,
        journal_fsync="off" if journal_dir else "commit",
        duration_fn=lambda t, scale, alloc: 1.0,
    )
    rss_per_wave = []
    start = time.perf_counter()
    with COMPSs(cfg) as rt:
        rss_before = rss_mb()
        done = 0
        while done < n_tasks:
            wave = min(WAVE, n_tasks - done)
            compss_wait_on([tiny(i) for i in range(done, done + wave)])
            done += wave
            if not rss_per_wave:
                live_kb = (rss_mb() - rss_before) * 1024.0 / wave
            rss_per_wave.append(round(rss_mb(), 1))
        elapsed = time.perf_counter() - start
        freed = rt.graph.freed_tasks
        live = rt.graph.n_tasks
    return {
        "benchmark": "stream_1m",
        "executor": "simulated",
        "cores": N_CORES,
        "n_tasks": n_tasks,
        "waves": len(rss_per_wave),
        "wave_size": WAVE,
        "elapsed_s": round(elapsed, 2),
        "tasks_per_sec": round(n_tasks / elapsed, 1),
        "per_task_us": round(elapsed / n_tasks * 1e6, 1),
        "freed_tasks": freed,
        "freed_fraction": round(freed / n_tasks, 4),
        "live_tasks_at_end": live,
        "rss_before_first_wave_mb": round(rss_before, 1),
        "live_kb_per_task": round(live_kb, 3),
        "rss_after_first_wave_mb": rss_per_wave[0],
        "rss_final_mb": rss_per_wave[-1],
        "rss_peak_mb": max(rss_per_wave),
        "rss_growth_mb": round(rss_per_wave[-1] - rss_per_wave[0], 1),
        "rss_per_wave_mb": rss_per_wave,
        "journal": journal_dir is not None,
    }


def report(data: dict) -> None:
    banner("Streaming graph + buffered journal — memory smoke")
    print(
        f"n={data['n_tasks']}: {data['tasks_per_sec']} tasks/s  "
        f"{data['per_task_us']} us/task  "
        f"freed {data['freed_fraction'] * 100:.1f}%"
    )
    print(
        f"RSS start={data['rss_before_first_wave_mb']} MiB  "
        f"live={data['live_kb_per_task']} KiB/task over wave 1"
    )
    print(
        f"RSS wave1={data['rss_after_first_wave_mb']} MiB  "
        f"final={data['rss_final_mb']} MiB  "
        f"growth={data['rss_growth_mb']} MiB over "
        f"{data['waves'] - 1} further wave(s)"
    )


def test_stream_smoke(tmp_path):
    """CI smoke: reduced-size streaming run under the RSS ceiling."""
    thresholds = load_thresholds()
    n_tasks = int(os.environ.get("BENCH_STREAM_TASKS", "200000"))
    data = run_stream(n_tasks, journal_dir=tmp_path)
    report(data)
    assert data["freed_fraction"] >= 0.99, data
    assert data["rss_growth_mb"] < thresholds["stream_rss_growth_mb_max"], data
    assert (
        data["live_kb_per_task"] < thresholds["stream_live_kb_per_task_max"]
    ), data
    assert (
        data["tasks_per_sec"] > thresholds["stream_min_tasks_per_sec"]
    ), data


def main() -> None:
    import tempfile

    n_tasks = int(os.environ.get("BENCH_STREAM_TASKS", "1000000"))
    with tempfile.TemporaryDirectory() as journal_dir:
        data = run_stream(n_tasks, journal_dir=journal_dir)
    report(data)
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")


if __name__ == "__main__":
    main()
