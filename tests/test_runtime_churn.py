"""Elastic churn survival tests.

Covers the node lifecycle (UP → DRAINING → DOWN → rejoin), graceful
drain with deadline escalation, spot-preemption notices and mass-loss
storms from a :class:`~repro.simcluster.failures.ChurnPlan`, and the
starvation watchdog that converts "no live node can ever host this
task" from a hang into a structured
:class:`~repro.runtime.fault.ResourceStarvationError`.
"""

import pytest

from repro.hpo import (
    GridSearch,
    PyCOMPSsRunner,
    fast_mock_objective,
    parse_search_space,
)
from repro.pycompss_api import compss_wait_on
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import (
    ResourceStarvationError,
    TaskFailedError,
    UpstreamFailureError,
)
from repro.runtime.resources import DOWN, DRAINING, ResourcePool, UP, Worker
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import (
    ChurnPlan,
    FailureInjector,
    MassLoss,
    NodeRejoin,
    PreemptionNotice,
)
from repro.simcluster.machines import heterogeneous, mare_nostrum4


def definition(name="experiment", cpu=48, gpu=0):
    return TaskDefinition(
        func=lambda c: c, name=name, returns=int, n_returns=1,
        constraint=ResourceConstraint(cpu_units=cpu, gpu_units=gpu),
    )


def sim_runtime(cluster, duration=100.0, **kwargs):
    return COMPSsRuntime(
        RuntimeConfig(
            cluster=cluster, executor="simulated", execute_bodies=True,
            duration_fn=lambda t, n, a: duration, **kwargs,
        )
    ).start()


def events_of(rt, *kinds):
    return [
        (e.kind, e.node) for e in rt.resilience.events if e.kind in kinds
    ]


# ----------------------------------------------------------------------
# Worker lifecycle states
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_state_transitions(self):
        w = Worker(mare_nostrum4(1).nodes[0])
        assert w.state == UP and w.available and not w.draining
        w.drain()
        assert w.state == DRAINING and not w.available and w.draining
        w.drain()  # idempotent
        assert w.state == DRAINING
        w.fail()
        assert w.state == DOWN and not w.draining
        w.recover()
        assert w.state == UP and w.available

    def test_drain_only_from_up(self):
        w = Worker(mare_nostrum4(1).nodes[0])
        w.fail()
        w.drain()  # no-op: a dead node cannot start draining
        assert w.state == DOWN

    def test_describe_renders_lifecycle_states(self):
        pool = ResourcePool(mare_nostrum4(3))
        pool.drain_worker("mn4-0001")
        pool.fail_node("mn4-0002")
        text = pool.describe()
        assert "DRAINING" in text
        assert "DOWN" in text

    def test_retire_worker_takes_node_down(self):
        pool = ResourcePool(mare_nostrum4(2))
        pool.drain_worker("mn4-0001")
        pool.retire_worker("mn4-0001")
        assert pool.workers["mn4-0001"].state == DOWN
        assert "DOWN" in pool.describe()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_drain_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="drain_deadline_s"):
            RuntimeConfig(cluster=mare_nostrum4(1), drain_deadline_s=0)

    def test_starvation_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="starvation_timeout_s"):
            RuntimeConfig(cluster=mare_nostrum4(1), starvation_timeout_s=-1.0)

    def test_starvation_timeout_none_disables_watchdog(self):
        cfg = RuntimeConfig(cluster=mare_nostrum4(1), starvation_timeout_s=None)
        assert cfg.starvation_timeout_s is None


# ----------------------------------------------------------------------
# ChurnPlan
# ----------------------------------------------------------------------
class TestChurnPlan:
    def test_builders_validate(self):
        with pytest.raises(ValueError):
            PreemptionNotice("n", 10.0, lead_s=0.0)
        with pytest.raises(ValueError):
            PreemptionNotice("n", 10.0, lead_s=60.0, rejoin_at=30.0)
        with pytest.raises(ValueError):
            MassLoss(10.0, ())
        with pytest.raises(ValueError):
            ChurnPlan().stochastic(1.5, 300.0, 900.0)

    def test_materialize_sorts_and_is_stable(self):
        plan = (
            ChurnPlan()
            .notice("b", 50.0, lead_s=10.0)
            .storm(50.0, "a", "c")
            .rejoin("a", 50.0)
            .notice("a", 10.0, lead_s=5.0)
        )
        events = plan.materialize(["a", "b", "c"])
        assert isinstance(events[0], PreemptionNotice) and events[0].node == "a"
        # Same timestamp: storms before notices before rejoins.
        assert isinstance(events[1], MassLoss)
        assert isinstance(events[2], PreemptionNotice) and events[2].node == "b"
        assert isinstance(events[3], NodeRejoin)
        assert plan.materialize(["a", "b", "c"]) == events

    def test_stochastic_draws_are_seeded(self):
        def draw(seed):
            plan = ChurnPlan().stochastic(
                0.5, interval_s=100.0, horizon_s=1000.0,
                lead_s=20.0, rejoin_delay_s=50.0, seed=seed,
            )
            return [
                (e.node, e.time, e.rejoin_at)
                for e in plan.materialize(["n1", "n2", "n3"])
            ]

        a = draw(7)
        assert a == draw(7)  # bit-reproducible
        assert a != draw(8)  # and seed-sensitive
        assert a  # p=0.5 over 30 windows: astronomically unlikely empty
        for _, time, rejoin_at in a:
            assert rejoin_at == pytest.approx(time + 20.0 + 50.0)


# ----------------------------------------------------------------------
# Graceful drain (simulated executor)
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_idle_node_completes_immediately(self):
        rt = sim_runtime(mare_nostrum4(2))
        try:
            rt.drain_node("mn4-0002")
            assert rt.pool.workers["mn4-0002"].state == DOWN
            kinds = [e.kind for e in rt.resilience.events]
            assert kinds == [rsl.NODE_DRAINING, rsl.DRAIN_COMPLETE]
            d = definition(cpu=48)
            futs = [rt.submit(d, (i,), {}) for i in range(2)]
            compss_wait_on(futs)
            assert {r.node for r in rt.tracer.records} == {"mn4-0001"}
        finally:
            rt.stop(wait=False)

    def test_drain_waits_for_running_task_then_retires(self):
        # A notice arrives mid-task with enough lead: the task finishes
        # on the draining node, then the node retires cleanly.
        churn = ChurnPlan().notice("mn4-0002", 10.0, lead_s=200.0)
        rt = sim_runtime(
            mare_nostrum4(2), duration=100.0,
            failure_injector=FailureInjector(churn=churn),
        )
        try:
            d = definition(cpu=48)
            futs = [rt.submit(d, (i,), {}) for i in range(3)]
            compss_wait_on(futs)
            by_node = {}
            for r in rt.tracer.records:
                by_node.setdefault(r.node, []).append(r)
            # The running task finished on the draining node (no kill)...
            assert len(by_node["mn4-0002"]) == 1
            assert by_node["mn4-0002"][0].success
            # ...and the drain completed without escalation.
            kinds = [e.kind for e in rt.resilience.events]
            assert rsl.PREEMPTION_NOTICE in kinds
            assert rsl.DRAIN_COMPLETE in kinds
            assert rsl.DRAIN_DEADLINE not in kinds
            assert rsl.NODE_LOST not in kinds
            # Task 3 serialised onto the surviving node.
            assert len(by_node["mn4-0001"]) == 2
        finally:
            rt.stop(wait=False)

    def test_drain_deadline_escalates_to_failure(self):
        # Lead time shorter than the running task: at the deadline the
        # node is failed and the task resubmits elsewhere.
        churn = ChurnPlan().notice("mn4-0002", 10.0, lead_s=30.0)
        rt = sim_runtime(
            mare_nostrum4(2), duration=100.0,
            failure_injector=FailureInjector(churn=churn),
        )
        try:
            d = definition(cpu=48)
            futs = [rt.submit(d, (i,), {}) for i in range(2)]
            compss_wait_on(futs)
            kinds = [e.kind for e in rt.resilience.events]
            assert rsl.PREEMPTION_NOTICE in kinds
            assert rsl.DRAIN_DEADLINE in kinds
            assert rsl.NODE_LOST in kinds
            assert rsl.DRAIN_COMPLETE not in kinds
            assert rt.pool.workers["mn4-0002"].state == DOWN
            # Both tasks completed on the survivor (one after a retry).
            done = [r for r in rt.tracer.records if r.success]
            assert {r.node for r in done} == {"mn4-0001"}
        finally:
            rt.stop(wait=False)

    def test_draining_node_spills_to_checkpoint(self, tmp_path):
        rt = sim_runtime(
            mare_nostrum4(2), duration=10.0,
            checkpoint_dir=str(tmp_path), checkpoint_every=None,
        )
        try:
            d = definition(cpu=48)
            futs = [rt.submit(d, (i,), {}) for i in range(2)]
            compss_wait_on(futs)
            drained = next(
                n for n in ("mn4-0001", "mn4-0002")
                if any(r.node == n for r in rt.tracer.records)
            )
            rt.drain_node(drained)
            drain_events = rt.resilience.of_kind(rsl.NODE_DRAINING)
            assert drain_events and "spilled=" in drain_events[0].detail
            assert "spilled=0" not in drain_events[0].detail
        finally:
            rt.stop(wait=False)

    def test_drain_unknown_node_raises(self):
        rt = sim_runtime(mare_nostrum4(1))
        try:
            with pytest.raises(ValueError, match="unknown node"):
                rt.drain_node("nope")
            with pytest.raises(ValueError, match="deadline"):
                rt.drain_node("mn4-0001", deadline_s=0.0)
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Elastic rejoin
# ----------------------------------------------------------------------
class TestElasticRejoin:
    def test_storm_then_rejoin_restores_capacity(self):
        churn = ChurnPlan().storm(50.0, "mn4-0002", rejoin_at=150.0)
        rt = sim_runtime(
            mare_nostrum4(2), duration=100.0,
            failure_injector=FailureInjector(churn=churn),
        )
        try:
            d = definition(cpu=48)
            futs = [rt.submit(d, (i,), {}) for i in range(4)]
            compss_wait_on(futs)
            assert events_of(rt, rsl.NODE_LOST) == [(rsl.NODE_LOST, "mn4-0002")]
            assert events_of(rt, rsl.NODE_REJOINED) == [
                (rsl.NODE_REJOINED, "mn4-0002")
            ]
            # The rejoined node ran work after coming back.
            late = [
                r for r in rt.tracer.records
                if r.node == "mn4-0002" and r.start >= 150.0 and r.success
            ]
            assert late
        finally:
            rt.stop(wait=False)

    def test_rejoined_node_is_replica_target(self):
        # The storm leaves one node: outputs written while it is alone
        # get a single copy (no replica target exists).  The rejoining
        # node is re-seeded as the missing replica.
        churn = ChurnPlan().storm(5.0, "mn4-0002", rejoin_at=300.0)
        rt = sim_runtime(
            mare_nostrum4(2), duration=100.0,
            failure_injector=FailureInjector(churn=churn),
            verify_outputs=True, replication_factor=2,
        )
        try:
            d = definition(cpu=48)
            compss_wait_on([rt.submit(d, (i,), {}) for i in range(2)])
            # Keep the sim alive past the rejoin with another batch.
            compss_wait_on([rt.submit(d, (i,), {}) for i in range(2)])
            rejoined = rt.resilience.of_kind(rsl.NODE_REJOINED)
            assert rejoined and "reseeded=" in rejoined[0].detail
            assert rt.integrity.stats()
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Starvation watchdog
# ----------------------------------------------------------------------
class TestStarvationWatchdog:
    def gpu_runtime(self, churn, **kwargs):
        return sim_runtime(
            heterogeneous(cpu_nodes=2, gpu_nodes=1), duration=100.0,
            failure_injector=FailureInjector(churn=churn), **kwargs,
        )

    def test_gpu_class_starves_when_last_gpu_node_dies(self):
        # The only GPU node dies before the GPU task can run: the task
        # must fail with ResourceStarvationError after the watchdog
        # timeout — not hang the simulation forever.
        churn = ChurnPlan().storm(10.0, "gpu-0001")
        rt = self.gpu_runtime(churn, starvation_timeout_s=120.0)
        try:
            cpu_fut = rt.submit(definition("warmup", cpu=4), (0,), {})
            gpu_fut = rt.submit(definition("train", cpu=4, gpu=1), (1,), {})
            compss_wait_on(cpu_fut)
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(gpu_fut)
            cause = err.value.__cause__
            assert isinstance(cause, ResourceStarvationError)
            assert "starved" in str(cause)
            assert cause.waited_s == pytest.approx(120.0)
            # The failure happened at watchdog expiry, not at sim end.
            assert rt.virtual_time == pytest.approx(10.0 + 120.0, abs=1.0)
            starved = rt.resilience.of_kind(rsl.CLASS_STARVED)
            assert starved
        finally:
            rt.stop(wait=False)

    def test_gpu_rejoin_before_timeout_unstarves(self):
        churn = ChurnPlan().storm(10.0, "gpu-0001", rejoin_at=80.0)
        rt = self.gpu_runtime(churn, starvation_timeout_s=300.0)
        try:
            gpu_fut = rt.submit(definition("train", cpu=4, gpu=1), (1,), {})
            assert compss_wait_on(gpu_fut) == 1
            assert events_of(rt, rsl.NODE_REJOINED) == [
                (rsl.NODE_REJOINED, "gpu-0001")
            ]
            done = [r for r in rt.tracer.records if r.success]
            assert done[-1].node == "gpu-0001"
            assert done[-1].start >= 80.0
        finally:
            rt.stop(wait=False)

    def test_no_timeout_holds_starved_class_until_rejoin(self):
        # starvation_timeout_s=None disables the watchdog: the starved GPU
        # task is held through an outage far longer than any timeout,
        # never fails for starvation, and places once the node rejoins.
        churn = ChurnPlan().storm(10.0, "gpu-0001", rejoin_at=5000.0)
        rt = self.gpu_runtime(churn, starvation_timeout_s=None)
        try:
            gpu_fut = rt.submit(definition("train", cpu=4, gpu=1), (1,), {})
            assert compss_wait_on(gpu_fut) == 1
            assert rt.resilience.of_kind(rsl.CLASS_STARVED)
            done = [r for r in rt.tracer.records if r.success]
            assert done[-1].node == "gpu-0001"
            assert done[-1].start >= 5000.0
        finally:
            rt.stop(wait=False)

    def test_permanently_unsatisfiable_still_raises_immediately(self):
        # No node in the cluster could *ever* host the constraint: that
        # stays an immediate, permanent error — not a starvation hold.
        rt = sim_runtime(mare_nostrum4(2))
        try:
            fut = rt.submit(definition("huge", cpu=10_000), (0,), {})
            with pytest.raises(RuntimeError, match="unsatisfiable"):
                compss_wait_on(fut)
        finally:
            rt.stop(wait=False)

    def test_terminal_failure_cascades_to_consumers(self):
        # A starved producer's consumers can never become ready.  They
        # must fail with UpstreamFailureError — awaiting only the
        # *consumer* still surfaces the root cause instead of stalling
        # the simulation forever (the seed-23 bench hang).
        churn = ChurnPlan().storm(10.0, "gpu-0001")
        rt = self.gpu_runtime(churn, starvation_timeout_s=120.0)
        try:
            gpu_fut = rt.submit(definition("train", cpu=4, gpu=1), (1,), {})
            plot_fut = rt.submit(definition("plot", cpu=4), (gpu_fut,), {})
            with pytest.raises(TaskFailedError) as err:
                compss_wait_on(plot_fut)
            cause = err.value.__cause__
            assert isinstance(cause, UpstreamFailureError)
            assert cause.upstream_label.startswith("train")
            assert isinstance(cause.upstream_cause, ResourceStarvationError)
            cancelled = rt.resilience.of_kind(rsl.UPSTREAM_CANCELLED)
            assert len(cancelled) == 1
            assert cancelled[0].task_label.startswith("plot")
        finally:
            rt.stop(wait=False)


# ----------------------------------------------------------------------
# Chaos acceptance: churn storm study converges to the clean answer
# ----------------------------------------------------------------------
def space():
    return parse_search_space(
        {"optimizer": ["Adam", "SGD"], "num_epochs": [2, 4], "batch_size": [32]}
    )


def run_study(seed, churn_on):
    injector = None
    if churn_on:
        churn = (
            ChurnPlan()
            # A notice on a tail node: drains (idle or after its task)
            # and rejoins later.
            .notice("mn4-0006", 100.0, lead_s=60.0, rejoin_at=700.0)
            # One mass-loss storm: three nodes at once, back at t=1500.
            .storm(400.0, "mn4-0002", "mn4-0003", "mn4-0004",
                   rejoin_at=1500.0)
            # Sustained stochastic spot churn with rejoins.
            .stochastic(
                0.15, interval_s=900.0, horizon_s=3600.0,
                lead_s=60.0, rejoin_delay_s=300.0, seed=seed,
            )
        )
        injector = FailureInjector(seed=seed, churn=churn)
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(6),
        executor="simulated",
        execute_bodies=True,
        verify_outputs=True,
        replication_factor=2,
        failure_injector=injector,
        drain_deadline_s=60.0,
        starvation_timeout_s=600.0,
    )
    runtime = COMPSsRuntime(cfg).start()
    try:
        runner = PyCOMPSsRunner(
            GridSearch(space()),
            objective=fast_mock_objective,
            constraint=ResourceConstraint(cpu_units=48),
            visualize=True,
        )
        study = runner.run()
        return {
            "best": study.best_trial().config,
            "n_complete": sum(
                1 for t in study.trials if t.status.value == "completed"
            ),
            "churn": runtime.analysis().churn(),
            "events": [
                (e.time, e.kind, e.task_label, e.node)
                for e in runtime.resilience.events
            ],
            "virtual_time": runtime.virtual_time,
        }
    finally:
        runtime.stop(wait=False)


class TestChurnChaosAcceptance:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_churny_study_converges_to_clean_answer(self, seed):
        clean = run_study(seed, churn_on=False)
        dirty = run_study(seed, churn_on=True)
        assert dirty["best"] == clean["best"]
        assert dirty["n_complete"] == clean["n_complete"] == 4
        churn = dirty["churn"]
        assert churn["preemption_notices"] >= 1
        assert churn["drains_completed"] >= 1
        # The 3-node storm — minus any member already taken down by the
        # stochastic churn before it hit.
        assert churn["nodes_lost"] >= 2
        assert churn["nodes_lost"] + churn["drains_completed"] >= 3
        assert churn["nodes_rejoined"] >= 1
        # Nothing churned in the clean run.
        assert not any(clean["churn"].values())

    def test_churn_run_is_deterministic(self):
        a = run_study(23, churn_on=True)
        b = run_study(23, churn_on=True)
        assert a["best"] == b["best"]
        assert a["events"] == b["events"]
        assert a["churn"] == b["churn"]
        assert a["virtual_time"] == pytest.approx(b["virtual_time"])
