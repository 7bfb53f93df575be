"""Tests for real (threaded) execution."""

import sys
import threading
import time

import pytest

from repro.pycompss_api import COMPSs, compss_barrier, compss_wait_on, constraint, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import ResourceStarvationError, RetryPolicy, TaskFailedError
from repro.runtime.resources import DOWN
from repro.runtime.task_definition import TaskInvocation
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import heterogeneous, local_machine


@task(returns=int)
def add_one(x):
    return x + 1


@task(returns=int)
def slow_square(x):
    time.sleep(0.05)
    return x * x


@task(returns=float)
def nap(seconds):
    time.sleep(seconds)
    return seconds


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


def _gpu_definition():
    from repro.runtime.task_definition import TaskDefinition

    return TaskDefinition(
        func=module_level_square, name="gpu_square", returns=int, n_returns=1,
        constraint=ResourceConstraint(cpu_units=4, gpu_units=1),
    )


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestTimers:
    """Starvation, drains and straggler checks run on the executor's own
    timers, not on ``wait_for``'s 0.5 s wake-up."""

    @staticmethod
    def runtime(cluster, **kw):
        from repro.runtime.runtime import COMPSsRuntime

        return COMPSsRuntime(
            RuntimeConfig(cluster=cluster, executor="local", **kw)
        ).start()

    def test_starvation_fails_at_its_timeout(self):
        rt = self.runtime(
            heterogeneous(cpu_nodes=1, gpu_nodes=1), starvation_timeout_s=0.05
        )
        try:
            rt.drain_node("gpu-0001", deadline_s=5.0)
            fut = rt.submit(_gpu_definition(), (3,), {})
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(fut)
            cause = err.value.__cause__
            assert isinstance(cause, ResourceStarvationError)
            assert 0.05 <= cause.waited_s < 0.35
        finally:
            rt.stop(wait=False)

    def _drain_mid_wait(self, rt, deadline_s, nap_s):
        """Drain the node while the driver is blocked on a napping task;
        return ``(task end time, node)``."""
        started = threading.Event()
        node = next(iter(rt.pool.workers))

        @task(returns=int)
        def napping(x):
            started.set()
            time.sleep(nap_s)
            return x

        def drain():
            started.wait()
            rt.drain_node(node, deadline_s=deadline_s)

        helper = threading.Thread(target=drain)
        fut = napping(3)
        helper.start()
        assert compss_wait_on(fut) == 3
        helper.join(timeout=5.0)
        assert not helper.is_alive()
        [record] = [r for r in rt.tracer.records if r.success]
        return record.end, node

    def test_drain_completes_when_the_last_attempt_ends(self):
        rt = self.runtime(local_machine(2))
        try:
            end, node = self._drain_mid_wait(rt, deadline_s=5.0, nap_s=0.3)
            _wait_until(lambda: rt.resilience.of_kind(rsl.DRAIN_COMPLETE))
            [draining] = rt.resilience.of_kind(rsl.NODE_DRAINING)
            [complete] = rt.resilience.of_kind(rsl.DRAIN_COMPLETE)
            assert draining.time < end <= complete.time < end + 0.25
            assert complete.node == node
            assert rt.pool.workers[node].state == DOWN
            assert not rt.resilience.of_kind(rsl.DRAIN_DEADLINE)
        finally:
            rt.stop(wait=False)

    def test_drain_deadline_retires_a_busy_node(self):
        rt = self.runtime(local_machine(2))
        try:
            end, node = self._drain_mid_wait(rt, deadline_s=0.1, nap_s=0.6)
            [draining] = rt.resilience.of_kind(rsl.NODE_DRAINING)
            [deadline] = rt.resilience.of_kind(rsl.DRAIN_DEADLINE)
            assert draining.time + 0.1 <= deadline.time < end
            assert deadline.node == node
            assert rt.pool.workers[node].state == DOWN
            assert not rt.resilience.of_kind(rsl.DRAIN_COMPLETE)
        finally:
            rt.stop(wait=False)

    def test_no_timer_outlives_stop(self):
        before = set(threading.enumerate())
        rt = self.runtime(
            heterogeneous(cpu_nodes=1, gpu_nodes=1),
            speculation_multiplier=100.0, starvation_timeout_s=60.0,
        )
        try:
            rt.drain_node("gpu-0001", deadline_s=5.0)
            assert compss_wait_on([nap(0.05) for _ in range(3)]) == [0.05] * 3
            straggler = nap(0.5)
            # A check armed about 5 s out (100 x the 50 ms median) and a
            # 60 s starvation deadline, both pending at stop().
            _wait_until(lambda: any(
                a.spec_check is not None
                for attempts in list(rt.executor._attempts.values())
                for a in attempts
            ))
            gpu = rt.submit(_gpu_definition(), (3,), {})
            _wait_until(lambda: rt.executor._starvation_handle is not None)
        finally:
            rt.stop(wait=False)
        assert straggler.done and not gpu.done
        timers = [
            t for t in threading.enumerate()
            if isinstance(t, threading.Timer) and t not in before
        ]
        for timer in timers:
            timer.join(timeout=1.0)
        assert not [t for t in timers if t.is_alive()]


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
