"""Ablation — fault tolerance (paper §3/§4).

"If a task fails … an attempt is made to start the task again.  Secondly
if a computing unit fails … PyCOMPSs restarts this task in another
computing unit."  This bench injects (a) transient task failures and (b)
a mid-run node failure into the 27-task grid over 4 nodes, and measures
the makespan overhead of recovery; the run must still complete all
trials.
"""

from conftest import banner

from repro.hpo import GridSearch, PyCOMPSsRunner, fast_mock_objective, paper_search_space
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster import mare_nostrum4
from repro.simcluster.failures import FailureInjector, FailurePlan


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

