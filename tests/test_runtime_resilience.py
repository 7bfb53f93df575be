"""Tests for the resilience layer: deadlines, backoff, speculation,
node quarantine, and study-level fail-soft trial retries."""

import sys
import time
from collections import Counter

import pytest

from repro.hpo import GridSearch, PyCOMPSsRunner, parse_search_space
from repro.pycompss_api import COMPSs, compss_wait_on
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy, TaskFailedError, TaskTimeoutError
from repro.runtime.resilience import (
    NodeHealth,
    ResilienceLog,
    StragglerDetector,
)
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.stats import render_resilience
from repro.runtime.tracing import TraceAnalysis, TraceRecorder
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine, mare_nostrum4


def experiment_def(func=None, cpu=1):
    return TaskDefinition(
        func=func or (lambda config: 1),
        name="experiment",
        returns=int,
        n_returns=1,
        constraint=ResourceConstraint(cpu_units=cpu),
    )


def submit_n(rt, n, cpu=1, func=None):
    definition = experiment_def(func, cpu)
    return [rt.submit(definition, ({"i": i},), {}) for i in range(n)]


def sim_config(cluster, duration=60.0, **kwargs):
    return RuntimeConfig(
        cluster=cluster,
        executor="simulated",
        duration_fn=lambda t, n, a: duration,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Backoff policy (unit)
# ----------------------------------------------------------------------
class TestBackoff:
    def test_disabled_by_default(self):
        assert RetryPolicy().backoff_delay("t", 1) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_base_s=2.0, backoff_multiplier=3.0,
            backoff_max_s=10.0, backoff_jitter=0.0,
        )
        assert policy.backoff_delay("t", 1) == pytest.approx(2.0)
        assert policy.backoff_delay("t", 2) == pytest.approx(6.0)
        assert policy.backoff_delay("t", 3) == pytest.approx(10.0)  # capped

    def test_no_delay_before_first_failure(self):
        policy = RetryPolicy(backoff_base_s=2.0)
        assert policy.backoff_delay("t", 0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base_s=4.0, backoff_jitter=0.5, backoff_seed=9
        )
        d1 = policy.backoff_delay("experiment-1", 1)
        assert d1 == policy.backoff_delay("experiment-1", 1)
        assert 2.0 <= d1 <= 6.0
        # Different task / failure count draw different jitter.
        assert d1 != policy.backoff_delay("experiment-2", 1)
        assert d1 != policy.backoff_delay("experiment-1", 2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_jitter=1.5)

    def test_failure_error_chains_cause_and_history(self):
        plan = FailurePlan().fail_task("experiment-1", 0, 1, 2)
        cfg = sim_config(
            local_machine(2), 10.0,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(1, 1),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = submit_n(rt, 1)
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(futs)
            assert isinstance(err.value.__cause__, RuntimeError)
            assert "injected failure" in str(err.value.__cause__)
            text = str(err.value)
            assert "history:" in text
            assert "give_up" in text
            assert len(err.value.task.attempt_history) == 3
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Straggler detector (unit)
# ----------------------------------------------------------------------
class TestStragglerDetector:
    def test_no_threshold_below_min_samples(self):
        det = StragglerDetector(2.0, min_samples=3)
        det.observe("experiment", 10.0)
        det.observe("experiment", 12.0)
        assert det.median("experiment") is None
        assert det.threshold("experiment") is None

    def test_threshold_is_multiple_of_median(self):
        det = StragglerDetector(2.0, min_samples=3)
        for d in (10.0, 30.0, 20.0):
            det.observe("experiment", d)
        assert det.median("experiment") == pytest.approx(20.0)
        assert det.threshold("experiment") == pytest.approx(40.0)

    def test_names_tracked_independently(self):
        det = StragglerDetector(3.0, min_samples=1)
        det.observe("a", 2.0)
        det.observe("b", 8.0)
        assert det.threshold("a") == pytest.approx(6.0)
        assert det.threshold("b") == pytest.approx(24.0)

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ValueError):
            StragglerDetector(0.0)


# ----------------------------------------------------------------------
# Node health (unit, with a fake clock)
# ----------------------------------------------------------------------
class TestNodeHealth:
    def make(self, **kwargs):
        clock = [0.0]
        log = ResilienceLog()
        health = NodeHealth(
            threshold=kwargs.pop("threshold", 0.5),
            window=kwargs.pop("window", 4),
            min_events=kwargs.pop("min_events", 2),
            cooldown_s=kwargs.pop("cooldown_s", 100.0),
            log=log,
            clock=lambda: clock[0],
            **kwargs,
        )
        return health, clock, log

    def test_disabled_without_threshold(self):
        health = NodeHealth(threshold=None)
        for _ in range(10):
            health.record_failure("n1")
        assert not health.enabled
        assert not health.is_blocked("n1")
        assert health.blocked_nodes() == []

    def test_quarantine_after_threshold(self):
        health, _, log = self.make()
        health.record_failure("n1")
        assert health.status("n1") == "healthy"  # min_events gate
        health.record_failure("n1")
        assert health.status("n1") == "quarantined"
        assert health.is_blocked("n1")
        assert health.blocked_nodes() == ["n1"]
        assert len(log.of_kind(rsl.QUARANTINE)) == 1

    def test_successes_keep_rate_below_threshold(self):
        health, _, _ = self.make()
        for _ in range(3):
            health.record_success("n1")
        health.record_failure("n1")  # 1/4 < 0.5
        assert health.status("n1") == "healthy"

    def test_window_forgets_old_failures(self):
        health, _, _ = self.make(window=4, min_events=4)
        health.record_failure("n1")
        health.record_failure("n1")
        for _ in range(4):  # pushes both failures out of the window
            health.record_success("n1")
        health.record_failure("n1")
        assert health.status("n1") == "healthy"

    def test_cooldown_expiry_probes(self):
        health, clock, log = self.make(cooldown_s=100.0)
        health.record_failure("n1")
        health.record_failure("n1")
        assert health.is_blocked("n1")
        clock[0] = 150.0
        assert not health.is_blocked("n1")
        assert health.status("n1") == "probing"
        assert len(log.of_kind(rsl.PROBE)) == 1

    def test_probe_success_restores_healthy(self):
        health, clock, _ = self.make()
        health.record_failure("n1")
        health.record_failure("n1")
        clock[0] = 200.0
        health.is_blocked("n1")
        health.record_success("n1")
        assert health.status("n1") == "healthy"
        # A fresh failure doesn't instantly re-quarantine: history cleared.
        health.record_failure("n1")
        assert health.status("n1") == "healthy"

    def test_probe_failure_requarantines(self):
        health, clock, log = self.make()
        health.record_failure("n1")
        health.record_failure("n1")
        clock[0] = 200.0
        health.is_blocked("n1")
        health.record_failure("n1")
        assert health.status("n1") == "quarantined"
        assert len(log.of_kind(rsl.QUARANTINE)) == 2
        assert "probe failed" in log.of_kind(rsl.QUARANTINE)[1].detail

    def test_describe_mentions_nodes(self):
        health, _, _ = self.make()
        health.record_failure("n1", kind="timeout")
        assert "n1" in health.describe()
        assert "timeout" in health.describe()


# ----------------------------------------------------------------------
# Resilience log / rendering (unit)
# ----------------------------------------------------------------------
class TestResilienceLog:
    def test_counts_and_filter(self):
        log = ResilienceLog()
        log.record(1.0, rsl.TIMEOUT, "t1", "n1")
        log.record(2.0, rsl.TIMEOUT, "t2", "n1")
        log.record(3.0, rsl.QUARANTINE, node="n1")
        assert log.counts() == {rsl.TIMEOUT: 2, rsl.QUARANTINE: 1}
        assert [e.task_label for e in log.of_kind(rsl.TIMEOUT)] == ["t1", "t2"]
        assert len(log) == 3

    def test_render_resilience(self):
        log = ResilienceLog()
        assert "no resilience events" in render_resilience(log)
        log.record(5.0, rsl.SPECULATION_WON, "t1", "n2", detail="fast")
        out = render_resilience(log)
        assert rsl.SPECULATION_WON in out and "t1" in out

    def test_ring_buffer_bounds_memory(self):
        log = ResilienceLog(maxlen=5)
        for i in range(12):
            log.record(float(i), rsl.PROBE, f"t{i}")
        assert len(log) == 5
        assert log.dropped == 7
        # Oldest events evicted, newest kept.
        assert [e.task_label for e in log.events] == [
            f"t{i}" for i in range(7, 12)
        ]

    def test_dropped_events_surface_in_counts(self):
        log = ResilienceLog(maxlen=2)
        for i in range(5):
            log.record(float(i), rsl.TIMEOUT, f"t{i}")
        counts = log.counts()
        assert counts[rsl.TIMEOUT] == 5
        assert counts["dropped_events"] == 3
        # No phantom key while nothing has been dropped.
        assert "dropped_events" not in ResilienceLog(maxlen=2).counts()

    def test_counts_are_exact_past_the_ring(self):
        log = ResilienceLog(maxlen=5)
        for i in range(12):
            kind = rsl.NODE_LOST if i % 3 == 0 else rsl.NODE_REJOINED
            log.record(float(i), kind, node=f"n{i}")
        assert len(log) == 5
        assert log.counts() == {
            rsl.NODE_LOST: 4, rsl.NODE_REJOINED: 8, "dropped_events": 7,
        }
        churn = TraceAnalysis(TraceRecorder(), log).churn()
        assert churn["nodes_lost"] == 4
        assert churn["nodes_rejoined"] == 8

    def test_default_capacity_is_bounded(self):
        log = ResilienceLog()
        assert log.events.maxlen == ResilienceLog.DEFAULT_MAXLEN == 10_000

    def test_clear_resets_dropped_counter(self):
        log = ResilienceLog(maxlen=1)
        log.record(0.0, rsl.PROBE, "a")
        log.record(1.0, rsl.PROBE, "b")
        assert log.dropped == 1
        log.clear()
        assert len(log) == 0 and log.dropped == 0
        assert log.counts() == {}


# ----------------------------------------------------------------------
# Simulated executor: deadlines and backoff
# ----------------------------------------------------------------------
class TestSimulatedTimeouts:
    def test_hung_task_times_out_and_retries(self):
        plan = FailurePlan().hang_task("experiment-1", 0)
        cfg = sim_config(
            local_machine(2), 30.0,
            failure_injector=FailureInjector(plan),
            task_timeout_s=50.0,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 1)
            compss_wait_on(futs)
            # Hung 0→50 (deadline), retried same node 50→80.
            assert rt.virtual_time == pytest.approx(80.0, abs=1.0)
            counts = rt.analysis().resilience_counts()
            assert counts.get(rsl.TIMEOUT) == 1
            event = rt.resilience.of_kind(rsl.TIMEOUT)[0]
            assert event.task_label == "experiment-1"
            assert "timeout" in rt.analysis().summary()

    def test_hang_without_deadline_stalls_with_hint(self):
        plan = FailurePlan().hang_task("experiment-1", 0)
        cfg = sim_config(
            local_machine(2), 30.0, failure_injector=FailureInjector(plan)
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = submit_n(rt, 1)
            with pytest.raises(RuntimeError, match="task_timeout_s"):
                compss_wait_on(futs)
        finally:
            rt.stop(wait=False)

    def test_timeouts_exhaust_retry_budget(self):
        plan = FailurePlan().hang_task("experiment-1", 0, 1)
        cfg = sim_config(
            local_machine(2), 30.0,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(1, 0),
            task_timeout_s=50.0,
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = submit_n(rt, 1)
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(futs)
            assert isinstance(err.value.__cause__, TaskTimeoutError)
        finally:
            rt.stop(wait=False)

    def test_backoff_delays_retry_in_virtual_time(self):
        plan = FailurePlan().fail_task("experiment-1", 0)
        cfg = sim_config(
            local_machine(2), 30.0,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(
                1, 1, backoff_base_s=10.0, backoff_jitter=0.0
            ),
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 1)
            compss_wait_on(futs)
            # fail at 30, wait 10, retry 40→70.
            assert rt.virtual_time == pytest.approx(70.0, abs=1.0)
            waits = rt.resilience.of_kind(rsl.BACKOFF_WAIT)
            assert len(waits) == 1 and "10.00s" in waits[0].detail

    def test_backoff_frees_the_slot_for_queued_work(self):
        # One slot: B starts when A's first attempt fails at t=10, not
        # after A's retry, which waits out its 50 s backoff.
        plan = FailurePlan().fail_task("experiment-1", 0)
        cfg = sim_config(
            local_machine(1), 10.0, execute_bodies=True,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(
                1, 1, backoff_base_s=50.0, backoff_jitter=0.0
            ),
        )
        with COMPSs(cfg) as rt:
            assert compss_wait_on(submit_n(rt, 2)) == [1, 1]
            starts = {t.label: t.start_time for t in rt.graph.tasks()}
            assert starts["experiment-2"] == pytest.approx(10.0, abs=1.0)
            assert starts["experiment-1"] == pytest.approx(60.0, abs=1.0)
            assert rt.virtual_time == pytest.approx(70.0, abs=1.0)

    def test_give_up_frees_the_slot_for_queued_work(self):
        plan = FailurePlan().fail_task("experiment-1", 0)
        cfg = sim_config(
            local_machine(1), 10.0, execute_bodies=True,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(0, 0),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            first, second = submit_n(rt, 2)
            # Not a stall: the abandoned slot runs B straight away.
            assert compss_wait_on(second) == 1
            assert rt.virtual_time == pytest.approx(20.0, abs=1.0)
            with pytest.raises(TaskFailedError):
                compss_wait_on(first)
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Simulated executor: speculative re-execution
# ----------------------------------------------------------------------
class TestSimulatedSpeculation:
    def test_straggler_backed_up_and_backup_wins(self):
        plan = FailurePlan().slow_task("experiment-4", 5.0)
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(2), executor="simulated",
            duration_fn=lambda t, n, a: 100.0,
            failure_injector=FailureInjector(plan),
            speculation_multiplier=2.0,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 4, cpu=24)
            compss_wait_on(futs)
            # 3 fast tasks finish at 100 → median 100, threshold 200.  The
            # slow one (500s alone) is backed up at 200 on the other node;
            # the clean backup finishes at 300 and wins.
            assert rt.virtual_time == pytest.approx(300.0, abs=2.0)
            counts = rt.analysis().resilience_counts()
            assert counts[rsl.SPECULATION_LAUNCHED] == 1
            assert counts[rsl.SPECULATION_WON] == 1
            assert counts[rsl.SPECULATION_CANCELLED] == 1
            slow = next(
                t for t in rt.graph.tasks() if t.label == "experiment-4"
            )
            # The winning attempt ran on a different node than the primary.
            won = rt.resilience.of_kind(rsl.SPECULATION_WON)[0]
            lost = rt.resilience.of_kind(rsl.SPECULATION_CANCELLED)[0]
            assert won.node != lost.node
            assert slow.node == won.node

    def test_no_speculation_without_other_nodes(self):
        plan = FailurePlan().slow_task("experiment-4", 5.0)
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(1), executor="simulated",
            duration_fn=lambda t, n, a: 100.0,
            failure_injector=FailureInjector(plan),
            speculation_multiplier=2.0,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 4, cpu=12)
            compss_wait_on(futs)
            assert rt.analysis().resilience_counts() == {}
            assert rt.virtual_time == pytest.approx(500.0, abs=2.0)


class TestSpeculationCheckRounding:
    def test_check_due_now_launches_instead_of_rearming(self):
        # 0.2 + 0.5 == 0.7, yet 0.7 - 0.2 < 0.5 in binary floating point.
        # A check that fired at its due time 0.7 and compared the elapsed
        # time with the threshold re-armed itself at 0.7, forever.
        rt = COMPSsRuntime(
            sim_config(mare_nostrum4(2), duration=100.0,
                       speculation_multiplier=1.0)
        ).start()
        try:
            ex = rt.executor
            submit_n(rt, 1, cpu=48)
            ex.sim.schedule(0.2, ex._dispatch)
            assert ex.sim.step()
            [[attempt]] = ex._attempts.values()
            assert attempt.start == 0.2 and attempt.spec_check is None
            for _ in range(3):
                rt.straggler.observe("experiment", 0.5)
            ex._schedule_spec_checks_for_name("experiment")
            assert attempt.spec_check.time == 0.7
            assert ex.sim.step()
            assert ex.sim.now == 0.7
            [launched] = rt.resilience.of_kind(rsl.SPECULATION_LAUNCHED)
            assert launched.time == 0.7
            assert attempt.spec_check is None
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Quarantine-aware scheduling (simulated)
# ----------------------------------------------------------------------
class TestQuarantineScheduling:
    def test_quarantined_node_avoided(self):
        cfg = sim_config(
            mare_nostrum4(2), 10.0,
            quarantine_threshold=0.5, quarantine_min_events=2,
        )
        with COMPSs(cfg) as rt:
            rt.node_health.record_failure("mn4-0001")
            rt.node_health.record_failure("mn4-0001")
            futs = submit_n(rt, 3, cpu=24)
            compss_wait_on(futs)
            assert rt.analysis().nodes_used() == ["mn4-0002"]
            assert rt.node_health.status("mn4-0001") == "quarantined"

    def test_quarantine_never_stalls_the_study(self):
        # Last-resort fallback: with every node quarantined, work still runs.
        cfg = sim_config(
            local_machine(2), 10.0,
            quarantine_threshold=0.5, quarantine_min_events=2,
        )
        with COMPSs(cfg) as rt:
            node = rt.cluster.nodes[0].name
            rt.node_health.record_failure(node)
            rt.node_health.record_failure(node)
            futs = submit_n(rt, 2)
            compss_wait_on(futs)
            assert all(f.done for f in futs)
            assert rt.analysis().nodes_used() == [node]

    def test_node_failure_quarantine_recovery_cycle(self):
        # Satellite: node fails mid-study, quarantines, recovers, probes
        # back in, and receives work again.
        plan = FailurePlan().fail_node(
            "mn4-0002", time=50.0, recovery_time=400.0
        )
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(2), executor="simulated",
            duration_fn=lambda t, n, a: 100.0,
            failure_injector=FailureInjector(plan),
            quarantine_threshold=0.5, quarantine_min_events=1,
            quarantine_window=4, quarantine_cooldown_s=100.0,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 6, cpu=48)  # one task per node at a time
            compss_wait_on(futs)
            assert all(f.done for f in futs)
            counts = rt.analysis().resilience_counts()
            assert counts.get(rsl.QUARANTINE, 0) >= 1
            assert counts.get(rsl.PROBE, 0) >= 1
            # The recovered node hosted work again after it came back.
            post_recovery = [
                r for r in rt.tracer.records
                if r.node == "mn4-0002" and r.success and r.start >= 400.0
            ]
            assert post_recovery
            assert rt.node_health.status("mn4-0002") == "healthy"


# ----------------------------------------------------------------------
# Local executor: wall-clock deadlines, speculation, backoff
# ----------------------------------------------------------------------
class TestLocalResilience:
    def test_timeout_converts_hang_into_retry(self):
        calls = Counter()

        def body(config):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(2.0)
            return 7

        cfg = RuntimeConfig(
            cluster=local_machine(2), executor="local",
            task_timeout_s=0.25,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 1, func=body)
            assert compss_wait_on(futs) == [7]
            counts = rt.analysis().resilience_counts()
            assert counts.get(rsl.TIMEOUT) == 1
        assert calls["n"] == 2

    def test_timeout_exhaustion_chains_cause(self):
        def body(config):
            time.sleep(2.0)
            return 1

        cfg = RuntimeConfig(
            cluster=local_machine(2), executor="local",
            task_timeout_s=0.15,
            retry_policy=RetryPolicy(0, 0),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = submit_n(rt, 1, func=body)
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(futs)
            assert isinstance(err.value.__cause__, TaskTimeoutError)
            assert "deadline" in str(err.value.__cause__)
        finally:
            rt.stop(wait=False)

    def test_backoff_waits_before_local_retry(self):
        plan = FailurePlan().fail_task("experiment-1", 0)
        cfg = RuntimeConfig(
            cluster=local_machine(2), executor="local",
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(
                1, 1, backoff_base_s=0.05, backoff_jitter=0.0
            ),
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 1)
            assert compss_wait_on(futs) == [1]
            assert len(rt.resilience.of_kind(rsl.BACKOFF_WAIT)) == 1

    def test_resubmission_backoff_frees_the_slot(self):
        # A resubmission waits out its backoff with its slot already
        # released: on one slot, the queued task B starts at once instead
        # of after A's 0.3 s wait.
        stamps = {}

        def body(config):
            i = config["i"]
            if i == 0 and "fail" not in stamps:
                stamps["fail"] = time.perf_counter()
                raise RuntimeError("first attempt of A fails")
            stamps.setdefault(i, time.perf_counter())
            return i

        cfg = RuntimeConfig(
            cluster=local_machine(1), executor="local",
            retry_policy=RetryPolicy(
                0, 1, backoff_base_s=0.3, backoff_jitter=0.0
            ),
        )
        with COMPSs(cfg) as rt:
            assert compss_wait_on(submit_n(rt, 2, func=body)) == [0, 1]
            [wait] = rt.resilience.of_kind(rsl.BACKOFF_WAIT)
            assert wait.detail == "0.30s before resubmit_other_node"
        assert stamps[1] < stamps["fail"] + 0.3
        assert stamps[0] >= stamps["fail"] + 0.25  # the backoff still ran

    def test_slots_conserved_under_retries_and_speculation(self):
        # Stress: 96 pool threads on a small host and a short switch
        # interval, timer-driven backoff retries and backups racing their
        # primaries.  Every slot must come back exactly once — a leaked
        # or doubly-released allocation breaks the free-core count.
        plan = FailurePlan()
        for i in range(1, 41, 3):
            plan.fail_task(f"experiment-{i}", 0)

        def body(config):
            time.sleep(0.06 if config["i"] % 9 == 0 else 0.002)
            return config["i"]

        cfg = RuntimeConfig(
            cluster=mare_nostrum4(2), executor="local",
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(
                1, 1, backoff_base_s=0.01, backoff_jitter=0.5
            ),
            speculation_multiplier=2.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with COMPSs(cfg) as rt:
                futs = submit_n(rt, 40, cpu=24, func=body)
                assert compss_wait_on(futs) == list(range(40))
        finally:
            sys.setswitchinterval(interval)
        assert rt.resilience.counts().get(rsl.BACKOFF_WAIT) == 14
        for worker in rt.pool.workers.values():
            assert worker.free_cpu_units == worker.task_capacity_cpus

    def test_straggler_speculation_on_threads(self):
        seen = Counter()

        def body(config):
            i = config["i"]
            first = seen[i] == 0
            seen[i] += 1
            if i == 0 and first:
                time.sleep(3.0)
            else:
                time.sleep(0.05)
            return i * 10

        cfg = RuntimeConfig(
            cluster=mare_nostrum4(2), executor="local",
            speculation_multiplier=2.0,
        )
        with COMPSs(cfg) as rt:
            futs = submit_n(rt, 4, cpu=24, func=body)
            t0 = time.perf_counter()
            results = compss_wait_on(futs)
            elapsed = time.perf_counter() - t0
            assert results == [0, 10, 20, 30]
            counts = rt.analysis().resilience_counts()
            assert counts.get(rsl.SPECULATION_LAUNCHED, 0) >= 1
            assert counts.get(rsl.SPECULATION_WON, 0) >= 1
        # The backup (≈0.05 s) beat the 3 s straggler by a wide margin.
        assert elapsed < 2.5


# ----------------------------------------------------------------------
# Study-level fail-soft trial retries
# ----------------------------------------------------------------------
class TestTrialRetries:
    def run_study(self, plan, max_trial_retries, n_configs=1):
        space = parse_search_space(
            {"num_epochs": list(range(1, n_configs + 1))}
        )
        cfg = sim_config(
            local_machine(4), 10.0,
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(0, 0),
            max_trial_retries=max_trial_retries,
        )
        with COMPSs(cfg) as rt:
            study = PyCOMPSsRunner(GridSearch(space)).run()
            events = rt.resilience.of_kind(rsl.TRIAL_RETRY)
        return study, events

    def test_lost_trial_resubmitted(self):
        plan = FailurePlan().fail_task("experiment-1", 0)
        study, events = self.run_study(plan, max_trial_retries=1)
        assert [t.status.value for t in study.trials] == ["completed"]
        assert len(events) == 1
        assert "resubmitted (1/1)" in events[0].detail

    def test_retry_budget_respected(self):
        plan = (
            FailurePlan()
            .fail_task("experiment-1", 0)
            .fail_task("experiment-2", 0)
        )
        study, events = self.run_study(plan, max_trial_retries=1)
        assert [t.status.value for t in study.trials] == ["failed"]
        assert len(events) == 1

    def test_disabled_by_default(self):
        plan = FailurePlan().fail_task("experiment-1", 0)
        study, events = self.run_study(plan, max_trial_retries=0)
        assert [t.status.value for t in study.trials] == ["failed"]
        assert events == []


# ----------------------------------------------------------------------
# Chaos acceptance test
# ----------------------------------------------------------------------
def run_chaos_study():
    """32-trial study under stochastic failures + scripted outage/hang.

    Returns (trial statuses, resilience counts, full event log).
    """
    plan = (
        FailurePlan()
        .hang_task("experiment-5", 0)
        .slow_task("experiment-31", 6.0)
        .fail_node("mn4-0002", time=150.0, recovery_time=800.0)
    )
    injector = FailureInjector(plan, task_failure_prob=0.08, seed=42)
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(4), executor="simulated",
        duration_fn=lambda t, n, a: 100.0,
        failure_injector=injector,
        retry_policy=RetryPolicy(
            1, 2, backoff_base_s=5.0, backoff_jitter=0.1, backoff_seed=1
        ),
        task_timeout_s=400.0,
        speculation_multiplier=2.0,
        quarantine_threshold=0.5,
        quarantine_window=6,
        quarantine_min_events=2,
        quarantine_cooldown_s=600.0,
        max_trial_retries=1,
    )
    space = parse_search_space(
        {
            "num_epochs": [1, 2, 3, 4, 5, 6, 7, 8],
            "batch_size": [16, 32, 64, 128],
        }
    )
    with COMPSs(cfg) as rt:
        study = PyCOMPSsRunner(
            GridSearch(space),
            constraint=ResourceConstraint(cpu_units=24),
        ).run()
        statuses = [t.status.value for t in study.trials]
        counts = rt.analysis().resilience_counts()
        events = list(rt.resilience.events)
    return statuses, counts, events


class TestChaosStudy:
    def test_no_trial_lost_and_all_mechanisms_fired(self):
        statuses, counts, _ = run_chaos_study()
        assert len(statuses) == 32
        assert statuses == ["completed"] * 32  # zero lost trials
        assert counts.get(rsl.TIMEOUT, 0) >= 1
        assert counts.get(rsl.SPECULATION_LAUNCHED, 0) >= 1
        assert counts.get(rsl.QUARANTINE, 0) >= 1

    def test_deterministic_under_fixed_seed(self):
        first = run_chaos_study()
        second = run_chaos_study()
        assert first == second
