"""Cross-executor equivalence and determinism tests.

The central promise of the design: the *same application* runs under the
local executor (real time) and the simulated executor (virtual time) with
identical results, and simulated runs are bit-deterministic so figures
are stable across invocations.
"""

import pytest

from repro.hpo import GridSearch, PyCOMPSsRunner, fast_mock_objective, parse_search_space
from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy, TaskFailedError
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine, mare_nostrum4


@task(returns=int)
def fib_step(a, b):
    return a + b


@task(returns=int)
def doomed(x):
    return x


def fibonacci_app():
    """A dependency-chain application; returns the resolved value."""
    a, b = fib_step(0, 1), fib_step(1, 1)
    for _ in range(8):
        a, b = b, fib_step(a, b)
    return compss_wait_on(b)


def space():
    return parse_search_space(
        {"optimizer": ["Adam", "SGD"], "num_epochs": [2, 4], "batch_size": [32]}
    )


class TestEquivalence:
    def test_sequential_local_simulated_agree(self):
        sequential = fibonacci_app()  # no runtime: inline execution

        with COMPSs(cluster=local_machine(2)):
            local = fibonacci_app()

        cfg = RuntimeConfig(
            cluster=local_machine(2), executor="simulated",
            execute_bodies=True, duration_fn=lambda t, n, a: 1.0,
        )
        with COMPSs(cfg):
            simulated = fibonacci_app()

        assert sequential == local == simulated == 89

    def test_hpo_results_identical_across_executors(self):
        def run(executor):
            cfg = RuntimeConfig(
                cluster=local_machine(4) if executor == "local"
                else mare_nostrum4(1),
                executor=executor,
                execute_bodies=(executor == "simulated"),
            )
            return PyCOMPSsRunner(
                GridSearch(space()),
                objective=fast_mock_objective,
                runtime_config=cfg,
            ).run()

        local = run("local")
        simulated = run("simulated")
        key = lambda s: sorted(
            (t.describe_config(), round(t.val_accuracy, 12))
            for t in s.completed()
        )
        assert key(local) == key(simulated)
        assert (
            local.best_trial().describe_config()
            == simulated.best_trial().describe_config()
        )


class TestRetryLadderParity:
    """Every executor climbs the paper's retry ladder the same way: a task
    failing at attempts 0, 1 and 2 under ``RetryPolicy(1, 1)`` retries on
    its node, resubmits elsewhere, then gives up."""

    @pytest.mark.parametrize(
        "executor, backend",
        [("local", "threads"), ("local", "workers"), ("simulated", "threads")],
        ids=["threads", "workers", "simulated"],
    )
    def test_same_actions_attempts_and_cause(self, executor, backend):
        cfg = RuntimeConfig(
            cluster=local_machine(2), executor=executor, backend=backend,
            execute_bodies=True, duration_fn=lambda t, n, a: 1.0,
            failure_injector=FailureInjector(
                FailurePlan().fail_task("doomed-1", 0, 1, 2)
            ),
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=1),
        )
        with COMPSs(cfg):
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(doomed(1))
        failed = err.value.task
        actions = [line.rsplit(" -> ", 1)[1] for line in failed.attempt_history]
        assert actions == ["retry_same_node", "resubmit_other_node", "give_up"]
        assert failed.attempts == 3
        cause = err.value.__cause__
        assert type(cause) is RuntimeError
        assert "injected failure for doomed-1" in str(cause)


class TestDeterminism:
    def run_traced(self):
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(2), executor="simulated",
            execute_bodies=True, reserved_cores=24,
        )
        rt = COMPSsRuntime(cfg).start()
        try:
            runner = PyCOMPSsRunner(
                GridSearch(space()),
                objective=fast_mock_objective,
                constraint=ResourceConstraint(cpu_units=4),
            )
            study = runner.run()
            trace = [
                (r.task_label, r.node, r.cpu_ids, round(r.start, 6),
                 round(r.end, 6))
                for r in rt.tracer.records
            ]
            return study.total_duration_s, trace
        finally:
            rt.stop(wait=False)

    def test_simulated_runs_bit_identical(self):
        t1, trace1 = self.run_traced()
        t2, trace2 = self.run_traced()
        assert t1 == t2
        assert trace1 == trace2
