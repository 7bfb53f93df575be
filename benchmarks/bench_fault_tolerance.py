"""Ablation — fault tolerance (paper §3/§4).

"If a task fails … an attempt is made to start the task again.  Secondly
if a computing unit fails … PyCOMPSs restarts this task in another
computing unit."  This bench injects (a) transient task failures and (b)
a mid-run node failure into the 27-task grid over 4 nodes, and measures
the makespan overhead of recovery; the run must still complete all
trials.
"""

import json
import tempfile
import time
from pathlib import Path

from conftest import banner

from repro.hpo import GridSearch, PyCOMPSsRunner, fast_mock_objective, paper_search_space
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster import local_machine, mare_nostrum4
from repro.simcluster.failures import FailureInjector, FailurePlan

REPO_ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS_PATH = Path(__file__).resolve().parent / "perf_thresholds.json"
CHECKPOINT_OUTPUT_PATH = REPO_ROOT / "BENCH_checkpoint.json"


def run(plan=None):
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(4), executor="simulated",
        execute_bodies=True,
        failure_injector=FailureInjector(plan) if plan else None,
    )
    runtime = COMPSsRuntime(cfg).start()
    try:
        runner = PyCOMPSsRunner(
            GridSearch(paper_search_space()),
            objective=fast_mock_objective,
            constraint=ResourceConstraint(cpu_units=16),
            study_name="fault-ablation",
        )
        study = runner.run()
        failed_attempts = sum(
            1 for r in runtime.tracer.records if not r.success
        )
        return study, failed_attempts
    finally:
        runtime.stop(wait=False)


def test_fault_tolerance_overhead(benchmark):
    def all_runs():
        clean, _ = run()
        plan = (
            FailurePlan()
            .fail_task("experiment-2", 0)       # transient: retried same node
            .fail_task("experiment-5", 0, 1)    # repeated: resubmitted elsewhere
            .fail_node("mn4-0002", time=1800.0) # node dies mid-run
        )
        faulty, failures = run(plan)
        return clean, faulty, failures

    clean, faulty, failures = benchmark.pedantic(all_runs, rounds=1, iterations=1)
    overhead = faulty.total_duration_s / clean.total_duration_s - 1.0
    banner("Ablation — fault tolerance (task retries + node failure)")
    print(f"clean run:  {clean.total_duration_s / 60:6.0f} min, 27/27 trials")
    print(
        f"faulty run: {faulty.total_duration_s / 60:6.0f} min, "
        f"{len(faulty.completed())}/27 trials, "
        f"{failures} failed attempts recovered"
    )
    print(f"makespan overhead of recovery: {overhead:+.0%}")

    # Every trial still completes — failures are transparent to the user.
    assert len(clean.completed()) == 27
    assert len(faulty.completed()) == 27
    assert failures >= 3
    # Recovery costs time, but bounded (no livelock / restart-storm).
    assert 0.0 <= overhead < 1.0


def run_resilient(plan=None, **resilience):
    """27-trial study with fixed 600 s tasks and the resilience stack on."""
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(4), executor="simulated",
        duration_fn=lambda t, n, a: 600.0,
        failure_injector=FailureInjector(plan) if plan else None,
        retry_policy=RetryPolicy(1, 1, backoff_base_s=5.0, backoff_jitter=0.0),
        **resilience,
    )
    runtime = COMPSsRuntime(cfg).start()
    try:
        runner = PyCOMPSsRunner(
            GridSearch(paper_search_space()),
            objective=fast_mock_objective,
            constraint=ResourceConstraint(cpu_units=16),
            study_name="resilience-ablation",
        )
        study = runner.run()
        return study, runtime.resilience.counts()
    finally:
        runtime.stop(wait=False)


def test_timeout_and_speculation_recover_stragglers(benchmark):
    """Deadline + speculation scenario: a hung task and a 6× straggler.

    Without a deadline the hung task would stall the study forever;
    without speculation the straggler alone would run 3600 s.  With both
    on, every trial completes and the makespan stays bounded.
    """
    plan = (
        FailurePlan()
        .hang_task("experiment-2", 0)       # killed by the 1500 s deadline
        .slow_task("experiment-25", 6.0)    # 3600 s straggler, backed up
    )

    def both_runs():
        clean, _ = run_resilient()
        chaotic, counts = run_resilient(
            plan,
            task_timeout_s=1500.0,
            speculation_multiplier=2.0,
        )
        return clean, chaotic, counts

    clean, chaotic, counts = benchmark.pedantic(both_runs, rounds=1, iterations=1)
    banner("Ablation — task deadlines + speculative re-execution")
    print(f"clean run:    {clean.total_duration_s / 60:6.1f} min, 27/27 trials")
    print(
        f"chaotic run:  {chaotic.total_duration_s / 60:6.1f} min, "
        f"{len(chaotic.completed())}/27 trials "
        f"(un-speculated straggler alone would end at "
        f"{(1200.0 + 3600.0) / 60:.0f} min)"
    )
    print(f"resilience events: {counts}")

    assert len(clean.completed()) == 27
    assert len(chaotic.completed()) == 27
    assert counts.get(rsl.TIMEOUT, 0) >= 1
    assert counts.get(rsl.SPECULATION_LAUNCHED, 0) >= 1
    assert counts.get(rsl.SPECULATION_WON, 0) >= 1
    # Deadlines + speculation keep the tail shorter than the naive
    # straggler finish time.
    assert chaotic.total_duration_s < 1200.0 + 3600.0


# ----------------------------------------------------------------------
# Checkpoint overhead (PR 3 crash consistency)
# ----------------------------------------------------------------------
TASK_SLEEP_S = 0.05


def _sleepy_objective(config):
    """Real wall-clock work, so journal fsyncs are measured against it."""
    time.sleep(TASK_SLEEP_S)
    return fast_mock_objective(config)


def run_checkpointed(workdir=None, cadence=10):
    """27-trial grid on the local executor; returns wall seconds."""
    cfg = RuntimeConfig(
        cluster=local_machine(cpu_cores=4),
        tracing=False,
        checkpoint_dir=str(workdir) if workdir is not None else None,
        checkpoint_every=cadence,
    )
    runtime = COMPSsRuntime(cfg).start()
    start = time.perf_counter()
    try:
        runner = PyCOMPSsRunner(
            GridSearch(paper_search_space()),
            objective=_sleepy_objective,
            study_name="checkpoint-overhead",
        )
        study = runner.run()
        elapsed = time.perf_counter() - start
        assert len(study.completed()) == 27
        return elapsed
    finally:
        runtime.stop(wait=False)


def measure_checkpoint_overhead(rounds=3, cadence=10):
    """Best-of-``rounds`` wall time with the journal off vs on.

    The journaled run pays one fsync'd append per task completion plus a
    pickle spill every ``cadence`` completions — the crash-consistency
    tax a user accepts to make a multi-day study kill -9-safe.
    """
    t_off = min(run_checkpointed(None) for _ in range(rounds))
    times_on = []
    spills = 0
    for _ in range(rounds):
        with tempfile.TemporaryDirectory() as tmp:
            times_on.append(run_checkpointed(Path(tmp), cadence=cadence))
            spills = len(list((Path(tmp) / "outputs").glob("*.pkl")))
    t_on = min(times_on)
    return {
        "trials": 27,
        "task_sleep_s": TASK_SLEEP_S,
        "cadence": cadence,
        "wall_s_off": round(t_off, 4),
        "wall_s_on": round(t_on, 4),
        "spilled_outputs": spills,
        "overhead_pct": round(100.0 * (t_on / t_off - 1.0), 2),
    }


def test_checkpoint_overhead_bounded(benchmark):
    """CI perf-smoke: journaling must stay cheap at the default cadence."""
    with open(THRESHOLDS_PATH) as fh:
        limit = json.load(fh)["checkpoint_overhead_pct_max"]

    result = benchmark.pedantic(
        measure_checkpoint_overhead, rounds=1, iterations=1
    )
    banner("Crash consistency — write-ahead journal overhead")
    print(
        f"checkpoint off: {result['wall_s_off'] * 1000:7.1f} ms   "
        f"on (cadence={result['cadence']}): {result['wall_s_on'] * 1000:7.1f} ms"
    )
    print(
        f"overhead: {result['overhead_pct']:+.1f}% "
        f"(limit {limit:.0f}%), {result['spilled_outputs']} outputs spilled"
    )
    CHECKPOINT_OUTPUT_PATH.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {CHECKPOINT_OUTPUT_PATH}")

    assert result["spilled_outputs"] >= 2  # cadence=10 over 27 tasks
    assert result["overhead_pct"] < limit
