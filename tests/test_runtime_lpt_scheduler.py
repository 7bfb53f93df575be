"""Tests for the LPT (longest-processing-time-first) scheduler."""

import pytest

from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler import LPTScheduler, get_scheduler
from repro.runtime.scheduler.lpt import default_estimate
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    reset_invocation_counter,
)
from repro.simcluster.machines import local_machine, mare_nostrum4


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


def config_task(config, cpu=1):
    definition = TaskDefinition(
        func=lambda c: None, name="experiment",
        constraint=ResourceConstraint(cpu_units=cpu),
    )
    return TaskInvocation(definition=definition, args=(config,), kwargs={})


class TestEstimate:
    def test_epochs_dominate(self):
        short = config_task({"num_epochs": 20, "batch_size": 64})
        long = config_task({"num_epochs": 100, "batch_size": 64})
        assert default_estimate(long) > default_estimate(short)

    def test_optimizer_factor(self):
        sgd = config_task({"num_epochs": 50, "optimizer": "SGD"})
        adam = config_task({"num_epochs": 50, "optimizer": "Adam"})
        assert default_estimate(adam) > default_estimate(sgd)

    def test_small_batch_slower(self):
        b32 = config_task({"num_epochs": 50, "batch_size": 32})
        b128 = config_task({"num_epochs": 50, "batch_size": 128})
        assert default_estimate(b32) > default_estimate(b128)

    def test_no_config_neutral(self):
        t = TaskInvocation(
            definition=TaskDefinition(func=lambda: None, name="x"),
            args=(), kwargs={},
        )
        assert default_estimate(t) == 1.0


class TestOrdering:
    def test_longest_first(self):
        tasks = [
            config_task({"num_epochs": e, "batch_size": 64})
            for e in (20, 100, 50)
        ]
        ordered = sorted(tasks, key=LPTScheduler().sort_key)
        epochs = [t.args[0]["num_epochs"] for t in ordered]
        assert epochs == [100, 50, 20]

    def test_ties_by_submission(self):
        a = config_task({"num_epochs": 50})
        b = config_task({"num_epochs": 50})
        assert sorted([b, a], key=LPTScheduler().sort_key) == [a, b]

    def test_custom_estimator(self):
        sched = LPTScheduler(estimator=lambda t: -t.task_id)
        a, b = config_task({}), config_task({})
        assert sorted([a, b], key=sched.sort_key) == [a, b]

    def test_registry(self):
        assert isinstance(get_scheduler("lpt"), LPTScheduler)


class TestMakespanBenefit:
    def test_lpt_no_worse_than_fifo_on_straggler_workload(self):
        """Longest-last FIFO order leaves a straggler; LPT front-loads it."""
        from repro.pycompss_api import compss_wait_on
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.runtime import COMPSsRuntime

        def run(scheduler):
            cfg = RuntimeConfig(
                cluster=local_machine(2), executor="simulated",
                scheduler=scheduler,
                duration_fn=lambda t, n, a: float(
                    t.args[0]["num_epochs"]
                ),
            )
            rt = COMPSsRuntime(cfg).start()
            try:
                definition = TaskDefinition(
                    func=lambda c: None, name="experiment", returns=int,
                    n_returns=1, constraint=ResourceConstraint(cpu_units=1),
                )
                # Short tasks first, one huge task last — FIFO's nightmare.
                futs = [
                    rt.submit(definition, ({"num_epochs": e},), {})
                    for e in (10, 10, 10, 10, 100)
                ]
                compss_wait_on(futs)
                return rt.virtual_time
            finally:
                rt.stop(wait=False)

        fifo_time = run("fifo")
        lpt_time = run("lpt")
        assert lpt_time < fifo_time
        # On 2 slots: FIFO ends at 10+10+100=120; LPT at max(100, 40) = 100.
        assert lpt_time == pytest.approx(100.0, abs=1.0)
        assert fifo_time == pytest.approx(120.0, abs=1.0)
