"""Edge-case tests: varargs dependency detection, multinode node failure,
requeue fairness, zero-duration tasks, consumers of dead producers."""

import pytest

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine, mare_nostrum4


class TestVarargsDependencies:
    def test_star_args_futures_create_dependencies(self):
        @task(returns=int)
        def produce(x):
            return x

        @task(returns=int)
        def total(*values):
            return sum(values)

        with COMPSs(cluster=local_machine(2)) as rt:
            futures = [produce(i) for i in range(4)]
            result = total(*futures)
            assert compss_wait_on(result) == 6
            sum_task = rt.graph.tasks()[-1]
            assert len(rt.graph.predecessors(sum_task)) == 4

    def test_kwargs_futures_create_dependencies(self):
        @task(returns=int)
        def produce(x):
            return x

        @task(returns=int)
        def combine(**parts):
            return parts["a"] + parts["b"]

        with COMPSs(cluster=local_machine(2)) as rt:
            a, b = produce(1), produce(2)
            result = combine(a=a, b=b)
            assert compss_wait_on(result) == 3
            combine_task = rt.graph.tasks()[-1]
            assert len(rt.graph.predecessors(combine_task)) == 2


class TestMultinodeNodeFailure:
    def test_healthy_allocations_released_when_one_node_dies(self):
        # A 2-node task holds mn4-0001 + mn4-0002; mn4-0001 dies mid-run.
        # The allocation on mn4-0002 must return to the pool so the retry
        # can use it.
        plan = FailurePlan().fail_node("mn4-0001", time=50.0)
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(3), executor="simulated",
            execute_bodies=True,
            duration_fn=lambda t, n, a: 100.0,
            failure_injector=FailureInjector(plan),
        )
        definition = TaskDefinition(
            func=lambda x: x, name="wide", returns=int, n_returns=1,
            constraint=ResourceConstraint(cpu_units=48, nodes=2),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            fut = rt.submit(definition, (7,), {})
            assert compss_wait_on(fut) == 7
            # Retry ran on the two surviving nodes.
            success_nodes = {
                r.node for r in rt.tracer.records if r.success
            }
            assert success_nodes == {"mn4-0002", "mn4-0003"}
            assert rt.virtual_time == pytest.approx(150.0, abs=3.0)
        finally:
            rt.stop(wait=False)


class TestConsumerOfDeadProducer:
    @pytest.mark.parametrize("executor", ["local", "simulated"])
    def test_consumer_submitted_after_the_failure_fails_instead_of_hanging(
        self, executor
    ):
        # The producer's fail_descendants pass ran before the consumer
        # existed; the consumer used to sit in SUBMITTED forever.
        from repro.runtime.fault import (
            RetryPolicy, TaskFailedError, UpstreamFailureError,
        )

        @task(returns=int)
        def boom(x):
            raise RuntimeError("dead")

        @task(returns=int)
        def inc(x):
            return x + 1

        cfg = RuntimeConfig(
            cluster=local_machine(2), executor=executor, execute_bodies=True,
            retry_policy=RetryPolicy(same_node_retries=0, resubmissions=0),
        )
        with COMPSsRuntime(cfg):
            dead = boom(1)
            with pytest.raises(TaskFailedError):
                compss_wait_on(dead)
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(inc(inc(dead)))
            assert isinstance(err.value.cause, UpstreamFailureError)


class TestRequeueFairness:
    def test_waiting_tasks_keep_submission_order(self):
        cfg = RuntimeConfig(
            cluster=local_machine(1), executor="simulated",
            execute_bodies=True, duration_fn=lambda t, n, a: 10.0,
        )
        definition = TaskDefinition(
            func=lambda i: i, name="unit", returns=int, n_returns=1,
            constraint=ResourceConstraint(cpu_units=1),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = [rt.submit(definition, (i,), {}) for i in range(5)]
            compss_wait_on(futs)
            starts = sorted(
                (r.start, r.task_label) for r in rt.tracer.records
            )
            # FIFO on one slot: execution order equals submission order.
            labels = [label for _, label in starts]
            assert labels == [f"unit-{i}" for i in range(1, 6)]
        finally:
            rt.stop(wait=False)


class TestZeroDurationTasks:
    def test_instant_tasks_complete(self):
        cfg = RuntimeConfig(
            cluster=local_machine(2), executor="simulated",
            execute_bodies=True, duration_fn=lambda t, n, a: 0.0,
        )
        definition = TaskDefinition(
            func=lambda i: i * i, name="sq", returns=int, n_returns=1,
            constraint=ResourceConstraint(cpu_units=1),
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            futs = [rt.submit(definition, (i,), {}) for i in range(10)]
            assert compss_wait_on(futs) == [i * i for i in range(10)]
        finally:
            rt.stop(wait=False)


class TestRuntimeConfigValidation:
    """Every rejected knob names itself and echoes the received value."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"backend": "quantum"},
             "RuntimeConfig.backend must be one of ['threads', 'workers'], "
             "got 'quantum'"),
            ({"journal_fsync": "sometimes"},
             "RuntimeConfig.journal_fsync must be one of "
             "['always', 'commit', 'off'], got 'sometimes'"),
            ({"max_trial_retries": -1},
             "RuntimeConfig.max_trial_retries must be >= 0, got -1"),
            ({"checkpoint_every": 0},
             "RuntimeConfig.checkpoint_every must be > 0, got 0"),
            ({"preempt_checkpoint_epochs": 0},
             "RuntimeConfig.preempt_checkpoint_epochs must be > 0, got 0"),
            ({"suspend_grace_s": -2.5},
             "RuntimeConfig.suspend_grace_s must be > 0, got -2.5"),
            ({"max_suspended_trials": 0},
             "RuntimeConfig.max_suspended_trials must be > 0, got 0"),
            ({"backend": "processes"},
             "RuntimeConfig.backend must be one of ['threads', 'workers'], "
             "got 'processes'"),
            ({"task_timeout_s": -1.0},
             "RuntimeConfig.task_timeout_s must be > 0, got -1.0"),
            ({"task_timeout_s": 0.0},
             "RuntimeConfig.task_timeout_s must be > 0, got 0.0"),
            ({"max_parallel": 0},
             "RuntimeConfig.max_parallel must be > 0, got 0"),
            ({"speculation_multiplier": 0.0},
             "RuntimeConfig.speculation_multiplier must be > 0, got 0.0"),
            ({"quarantine_threshold": 1.5},
             "RuntimeConfig.quarantine_threshold must be in (0.0, 1.0], "
             "got 1.5"),
            ({"quarantine_threshold": 0.0},
             "RuntimeConfig.quarantine_threshold must be in (0.0, 1.0], "
             "got 0.0"),
            ({"quarantine_window": 0},
             "RuntimeConfig.quarantine_window must be > 0, got 0"),
            ({"quarantine_min_events": 0},
             "RuntimeConfig.quarantine_min_events must be > 0, got 0"),
            ({"quarantine_cooldown_s": 0.0},
             "RuntimeConfig.quarantine_cooldown_s must be > 0, got 0.0"),
        ],
    )
    def test_error_names_knob_and_value(self, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            RuntimeConfig(cluster=local_machine(2), **kwargs)
        assert str(excinfo.value) == message

    def test_conflicting_knobs_name_both(self):
        with pytest.raises(ValueError) as excinfo:
            RuntimeConfig(
                cluster=local_machine(2),
                stream_completed=True, verify_outputs=True,
            )
        message = str(excinfo.value)
        assert "RuntimeConfig.stream_completed" in message
        assert "RuntimeConfig.verify_outputs" in message
