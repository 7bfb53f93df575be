"""Tests for real (threaded) execution."""

import sys
import threading
import time

import pytest

from repro.pycompss_api import COMPSs, compss_barrier, compss_wait_on, constraint, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy, TaskFailedError
from repro.runtime.task_definition import TaskInvocation
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine


@task(returns=int)
def add_one(x):
    return x + 1


@task(returns=int)
def slow_square(x):
    time.sleep(0.05)
    return x * x


@task(returns=2)
def divmod_task(a, b):
    return a // b, a % b


@task()
def fire_and_forget(acc):
    acc.append(1)


def module_level_square(x):
    """Top-level function wrapped by a hand-built definition."""
    return x * x


class TestBasicExecution:
    def test_single_task(self):
        with COMPSs(cluster=local_machine(2)):
            fut = add_one(1)
            assert compss_wait_on(fut) == 2

    def test_chain_through_futures(self):
        with COMPSs(cluster=local_machine(2)):
            a = add_one(0)
            b = add_one(a)
            c = add_one(b)
            assert compss_wait_on(c) == 3

    def test_wait_on_list(self):
        with COMPSs(cluster=local_machine(4)):
            futs = [add_one(i) for i in range(6)]
            assert compss_wait_on(futs) == [1, 2, 3, 4, 5, 6]

    def test_wait_on_nested_structure(self):
        with COMPSs(cluster=local_machine(2)):
            out = compss_wait_on({"a": [add_one(1), add_one(2)], "b": 7})
            assert out == {"a": [2, 3], "b": 7}

    def test_multi_return(self):
        with COMPSs(cluster=local_machine(2)):
            q, r = divmod_task(7, 3)
            assert compss_wait_on(q) == 2
            assert compss_wait_on(r) == 1

    def test_zero_return_task_and_barrier(self):
        acc = []
        with COMPSs(cluster=local_machine(2)):
            assert fire_and_forget(acc) is None
            compss_barrier()
            assert acc == [1]

    def test_parallel_speedup(self):
        # 8 × 50 ms tasks on 4 cores must take well under the serial 400 ms.
        with COMPSs(cluster=local_machine(4)) as rt:
            start = time.perf_counter()
            compss_wait_on([slow_square(i) for i in range(8)])
            elapsed = time.perf_counter() - start
        assert elapsed < 0.35

    def test_resource_limit_respected(self):
        # On 1 core, tasks serialise; peak concurrency must be 1.
        with COMPSs(cluster=local_machine(1)) as rt:
            compss_wait_on([slow_square(i) for i in range(3)])
            assert rt.analysis().max_concurrency() == 1

    def test_trace_records_tasks(self):
        with COMPSs(cluster=local_machine(2)) as rt:
            compss_wait_on([add_one(i) for i in range(3)])
            assert len(rt.tracer.records) == 3
            assert all(r.success for r in rt.tracer.records)

    def test_inout_serialises_updates(self):
        @task(data="INOUT")
        def append(data, value):
            data.append(value)

        with COMPSs(cluster=local_machine(4)):
            data = []
            for i in range(5):
                append(data, i)
            compss_barrier()
            assert data == [0, 1, 2, 3, 4]

    def test_sequential_after_stop(self):
        with COMPSs(cluster=local_machine(2)):
            pass
        assert add_one(5) == 6  # back to inline execution


class TestFaultTolerance:
    def test_injected_failure_retried_transparently(self):
        plan = FailurePlan().fail_task("add_one-1", 0)
        cfg = RuntimeConfig(
            cluster=local_machine(2),
            failure_injector=FailureInjector(plan),
        )
        with COMPSs(cfg) as rt:
            assert compss_wait_on(add_one(1)) == 2
            records = rt.tracer.records
        assert sum(1 for r in records if not r.success) == 1
        assert sum(1 for r in records if r.success) == 1

    def test_budget_exhaustion_raises(self):
        plan = FailurePlan().fail_task("add_one-1", 0, 1, 2)
        cfg = RuntimeConfig(
            cluster=local_machine(2),
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=1),
        )
        with COMPSs(cfg):
            fut = add_one(1)
            with pytest.raises(TaskFailedError, match="add_one-1"):
                compss_wait_on(fut)

    def test_other_tasks_unaffected_by_failure(self):
        # Paper §4: "The failure of a task does not affect the other tasks".
        plan = FailurePlan().fail_task("add_one-1", 0, 1, 2)
        cfg = RuntimeConfig(
            cluster=local_machine(2),
            failure_injector=FailureInjector(plan),
        )
        with COMPSs(cfg):
            bad = add_one(0)
            good = [add_one(i) for i in range(1, 4)]
            assert compss_wait_on(good) == [2, 3, 4]
            with pytest.raises(TaskFailedError):
                compss_wait_on(bad)

    def test_exception_in_body_is_retried_then_raised(self):
        calls = []

        @task(returns=int)
        def flaky(x):
            calls.append(1)
            raise ValueError("always broken")

        cfg = RuntimeConfig(
            cluster=local_machine(2),
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=0),
        )
        with COMPSs(cfg):
            fut = flaky(1)
            with pytest.raises(TaskFailedError):
                compss_wait_on(fut)
        assert len(calls) == 2  # original + one same-node retry


class TestWaitForCountdown:
    """``wait_for`` reads each awaited task once; completions count it down."""

    def test_wave_reads_each_awaited_state_once(self, monkeypatch):
        slot = TaskInvocation.__dict__["state"]
        reads = 0

        def read_state(task):
            nonlocal reads
            if sys._getframe(1).f_code.co_name in ("wait_for", "_unfinished"):
                reads += 1
            return slot.__get__(task, TaskInvocation)

        n = 2000
        with COMPSs(cluster=local_machine(2)):
            assert compss_wait_on(add_one(0)) == 1
            monkeypatch.setattr(
                TaskInvocation, "state", property(read_state, slot.__set__)
            )
            futs = [add_one(i) for i in range(n)]
            assert compss_wait_on(futs) == list(range(1, n + 1))
            monkeypatch.undo()
        # A rescan per resolution read O(n^2) states (3-16 per task at
        # n = 2000, growing with n); the countdown reads each one once.
        assert reads == n

    def test_failure_among_many_raises_at_the_waiter(self):
        plan = FailurePlan().fail_task("add_one-40", 0, 1, 2)
        cfg = RuntimeConfig(
            cluster=local_machine(2),
            failure_injector=FailureInjector(plan),
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=1),
        )
        with COMPSs(cfg) as rt:
            futs = [add_one(i) for i in range(100)]
            with pytest.raises(TaskFailedError, match="add_one-40"):
                compss_wait_on(futs)
            assert compss_wait_on(futs[:39]) == list(range(1, 40))
            assert not rt.executor._waits

    def test_heartbeat_still_checks_drains_and_starvation(self, monkeypatch):
        from repro.runtime.executor.local import LocalExecutor

        beats = []
        reap = LocalExecutor._reap_starved
        check = LocalExecutor._check_drains

        def counted_reap(self):
            beats.append("reap")
            return reap(self)

        def counted_check(self):
            beats.append("drains")
            return check(self)

        monkeypatch.setattr(LocalExecutor, "_reap_starved", counted_reap)
        monkeypatch.setattr(LocalExecutor, "_check_drains", counted_check)

        @task(returns=int)
        def napping(x):
            time.sleep(1.2)
            return x

        with COMPSs(cluster=local_machine(1)):
            fut = napping(3)
            beats.clear()
            assert compss_wait_on(fut) == 3
        # Two 0.5 s heartbeats and the final wake-up, each running both.
        assert beats.count("reap") >= 2 and beats.count("drains") >= 2


def _module_square_definition():
    from repro.runtime.task_definition import TaskDefinition

    return TaskDefinition(
        func=module_level_square, name="module_level_square",
        returns=int, n_returns=1,
    )


class TestRuntimeLifecycle:
    def test_double_start_rejected(self):
        from repro.runtime.runtime import COMPSsRuntime

        rt = COMPSsRuntime(RuntimeConfig(cluster=local_machine(1))).start()
        try:
            with pytest.raises(RuntimeError, match="already active"):
                COMPSsRuntime(RuntimeConfig(cluster=local_machine(1))).start()
        finally:
            rt.stop()

    def test_stop_waits_for_outstanding(self):
        with COMPSs(cluster=local_machine(2)) as rt:
            futs = [slow_square(i) for i in range(2)]
        # Exiting the context barriers; futures must be resolved.
        assert all(f.done for f in futs)

    def test_submit_after_stop_rejected(self):
        from repro.runtime.runtime import COMPSsRuntime

        rt = COMPSsRuntime(RuntimeConfig(cluster=local_machine(1))).start()
        rt.stop()
        with pytest.raises(RuntimeError, match="not started"):
            rt.submit(_module_square_definition(), (1,), {})
