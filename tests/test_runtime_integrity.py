"""End-to-end data-integrity tests.

Covers the full escalation ladder: checksum sealing at write time,
verification at every consume point, in-place repair (driver memory /
replicas), transfer retries with backoff, and lineage recompute when no
intact copy of a version survives anywhere.
"""

import pytest

from repro.hpo import GridSearch, PyCOMPSsRunner, fast_mock_objective, parse_search_space
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import integrity as igr
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy, TaskFailedError
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine, mare_nostrum4


def make_def(name, func, cpu=1, output_mb=0.0):
    return TaskDefinition(
        func=func,
        name=name,
        returns=object,
        n_returns=1,
        constraint=ResourceConstraint(cpu_units=cpu),
        output_size_mb=output_mb,
    )


def integrity_events(runtime, *kinds):
    kinds = kinds or (
        rsl.DATA_CORRUPT, rsl.REPLICA_REPAIR, rsl.INTEGRITY_RECOMPUTE,
        rsl.TRANSFER_RETRY, rsl.TRANSFER_FAILED,
    )
    return [(e.kind, e.task_label) for e in runtime.resilience.events if e.kind in kinds]


class _CountingRegistry(dict):
    """Stands in for ``AccessProcessor._future_data``; counts key lookups
    and whole-dict walks."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.walks = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()


# ----------------------------------------------------------------------
# Checksum helpers
# ----------------------------------------------------------------------
class TestChecksumHelpers:
    def test_checksum_bytes_stable_short_hex(self):
        a = igr.checksum_bytes(b"payload")
        assert a == igr.checksum_bytes(b"payload")
        assert len(a) == 16
        assert a != igr.checksum_bytes(b"payloae")

    def test_simulated_digest_varies_by_inputs(self):
        base = igr.simulated_digest("experiment-1", 10.0, 7)
        assert base == igr.simulated_digest("experiment-1", 10.0, 7)
        assert base != igr.simulated_digest("experiment-2", 10.0, 7)
        assert base != igr.simulated_digest("experiment-1", 11.0, 7)
        assert base != igr.simulated_digest("experiment-1", 10.0, 8)

    def test_pickle_value_none_for_unpicklable(self):
        assert igr.pickle_value(lambda: 1) is None
        payload = igr.pickle_value({"lr": 0.1})
        assert isinstance(payload, bytes)


# ----------------------------------------------------------------------
# Local executor: snapshots of real pickled bytes
# ----------------------------------------------------------------------
class TestLocalIntegrity:
    def test_clean_run_seals_and_verifies_everything(self):
        cfg = RuntimeConfig(cluster=local_machine(4), verify_outputs=True)
        with COMPSsRuntime(cfg) as rt:
            d = make_def("add", lambda a, b: a + b)
            x = rt.submit(d, (1, 2), {})
            y = rt.submit(d, (x, 10), {})
            assert rt.wait_on(y) == 13
            stats = rt.integrity.stats()
        assert stats["outputs_sealed"] == 2
        assert stats["reads_verified"] >= 2
        assert stats["corruptions_detected"] == 0
        assert stats["unverified_reads"] == 0

    def test_scripted_corruption_repairs_from_driver_memory(self):
        plan = FailurePlan().corrupt_output("add-1", scope="primary")
        cfg = RuntimeConfig(
            cluster=local_machine(4), verify_outputs=True,
            failure_injector=FailureInjector(plan=plan, seed=3),
        )
        with COMPSsRuntime(cfg) as rt:
            d = make_def("add", lambda a, b: a + b)
            x = rt.submit(d, (1, 2), {})
            y = rt.submit(d, (x, 10), {})
            assert rt.wait_on(y) == 13
            stats = rt.integrity.stats()
            events = integrity_events(rt)
        assert stats["corruptions_detected"] == 1
        assert stats["replica_repairs"] == 1
        assert stats["recomputes"] == 0
        assert (rsl.DATA_CORRUPT, "add-1") in events
        assert (rsl.REPLICA_REPAIR, "add-1") in events

    def test_total_corruption_recomputes_writer_at_wait(self):
        calls = []

        def body(a, b):
            calls.append((a, b))
            return a + b

        plan = FailurePlan().corrupt_output("add-1", scope="all")
        cfg = RuntimeConfig(
            cluster=local_machine(4), verify_outputs=True,
            failure_injector=FailureInjector(plan=plan, seed=3),
        )
        with COMPSsRuntime(cfg) as rt:
            d = make_def("add", body)
            x = rt.submit(d, (1, 2), {})
            assert rt.wait_on(x) == 3
            stats = rt.integrity.stats()
            events = integrity_events(rt)
        # The writer re-executed: scope="all" also destroyed the live value.
        assert calls == [(1, 2), (1, 2)]
        assert stats["recomputes"] == 1
        assert (rsl.INTEGRITY_RECOMPUTE, "add-1") in events

    def test_consumer_never_reads_unrepairable_input(self):
        """A task input with no intact copy fails loudly, never silently."""
        plan = FailurePlan().corrupt_output("add-1", scope="all")
        cfg = RuntimeConfig(
            cluster=local_machine(4), verify_outputs=True,
            retry_policy=RetryPolicy(same_node_retries=1, resubmissions=0),
            failure_injector=FailureInjector(plan=plan, seed=3),
        )
        with COMPSsRuntime(cfg) as rt:
            d = make_def("add", lambda a, b: a + b)
            x = rt.submit(d, (1, 2), {})
            y = rt.submit(d, (x, 10), {})
            with pytest.raises(TaskFailedError) as err:
                rt.wait_on(y)
        assert isinstance(err.value.__cause__, igr.IntegrityError)

    def test_sealing_cost_is_linear_in_the_awaited_set(self):
        """Sealing one completion used to walk every registered future
        (0.3 s at 1k awaited tasks, 19 s at 10k): count the registry
        reads instead of racing a clock."""
        d = make_def("inc", lambda x: x + 1)
        lookups = {}
        for n in (1000, 4000):
            registry = _CountingRegistry()
            cfg = RuntimeConfig(
                cluster=local_machine(4), backend="threads",
                verify_outputs=True, graph=False,
            )
            with COMPSsRuntime(cfg) as rt:
                rt.access._future_data = registry
                futures = [rt.submit(d, (x,), {}) for x in range(n)]
                assert rt.wait_on(futures) == [x + 1 for x in range(n)]
                stats = rt.integrity.stats()
            assert stats["reads_verified"] == n
            assert stats["outputs_sealed"] == n
            assert registry.walks == 0
            lookups[n] = registry.lookups
        assert lookups[4000] == 4 * lookups[1000]

    def test_unpicklable_outputs_are_skipped_not_fatal(self):
        cfg = RuntimeConfig(cluster=local_machine(4), verify_outputs=True)
        with COMPSsRuntime(cfg) as rt:
            d = make_def("mkfn", lambda: (lambda: 42))
            fn = rt.wait_on(rt.submit(d, (), {}))
            assert fn() == 42
            stats = rt.integrity.stats()
        assert stats["outputs_sealed"] == 0
        assert stats["unverified_reads"] == 0  # local mode: skip, don't count


# ----------------------------------------------------------------------
# Simulated executor: digest metadata + replicas
# ----------------------------------------------------------------------
def sim_config(nodes=4, rf=1, plan=None, seed=7, retries=2, **kw):
    injector = (
        FailureInjector(plan=plan or FailurePlan(), seed=seed)
        if plan is not None or kw.pop("force_injector", False)
        else None
    )
    return RuntimeConfig(
        cluster=mare_nostrum4(nodes),
        executor="simulated",
        execute_bodies=True,
        verify_outputs=True,
        replication_factor=rf,
        transfer_retries=retries,
        failure_injector=injector,
        duration_fn=lambda t, n, a: 10.0,
        **kw,
    )


def diamond(rt, output_mb=0.0):
    """produce ×2 → consume; full-node tasks spread across nodes."""
    produce = make_def("produce", lambda i: 2 * i, cpu=48, output_mb=output_mb)
    consume = make_def("consume", lambda a, b: a + b, cpu=48)
    a = rt.submit(produce, (1,), {})
    b = rt.submit(produce, (2,), {})
    return rt.submit(consume, (a, b), {})


class TestSimulatedIntegrity:
    def test_replica_repair_with_replication(self):
        plan = FailurePlan().corrupt_output("produce-1", scope="primary")
        with COMPSsRuntime(sim_config(rf=2, plan=plan)) as rt:
            assert rt.wait_on(diamond(rt)) == 6
            stats = rt.integrity.stats()
            events = integrity_events(rt)
        assert stats["corruptions_detected"] == 1
        assert stats["replica_repairs"] == 1
        assert stats["recomputes"] == 0
        assert (rsl.REPLICA_REPAIR, "produce-1") in events

    def test_no_replica_escalates_to_recompute(self):
        plan = FailurePlan().corrupt_output("produce-1", scope="primary")
        with COMPSsRuntime(sim_config(rf=1, plan=plan)) as rt:
            assert rt.wait_on(diamond(rt)) == 6
            stats = rt.integrity.stats()
        assert stats["corruptions_detected"] == 1
        assert stats["replica_repairs"] == 0
        assert stats["recomputes"] == 1

    def test_all_copies_corrupt_recomputes_despite_replicas(self):
        plan = FailurePlan().corrupt_output("produce-1", scope="all")
        with COMPSsRuntime(sim_config(rf=3, plan=plan)) as rt:
            assert rt.wait_on(diamond(rt)) == 6
            stats = rt.integrity.stats()
        assert stats["recomputes"] == 1
        assert stats["unverified_reads"] == 0

    def test_analysis_exposes_integrity_counts(self):
        plan = FailurePlan().corrupt_output("produce-1", scope="primary")
        with COMPSsRuntime(sim_config(rf=2, plan=plan)) as rt:
            rt.wait_on(diamond(rt))
            view = rt.analysis().data_integrity()
        assert view["corruptions"] == 1
        assert view["replica_repairs"] == 1
        assert view["recomputes"] == 0

    def test_verification_off_has_no_manager(self):
        cfg = sim_config()
        cfg.verify_outputs = False
        with COMPSsRuntime(cfg) as rt:
            assert rt.wait_on(diamond(rt)) == 6
            assert rt.integrity is None


class TestTransferChaos:
    def test_torn_transfer_retries_and_costs_time(self):
        clean_cfg = sim_config(plan=FailurePlan())
        with COMPSsRuntime(clean_cfg) as rt:
            assert rt.wait_on(diamond(rt, output_mb=40.0)) == 6
            clean_time = rt.virtual_time

        plan = FailurePlan().fail_transfer("consume-3", 0)
        with COMPSsRuntime(sim_config(plan=plan)) as rt:
            assert rt.wait_on(diamond(rt, output_mb=40.0)) == 6
            stats = rt.integrity.stats()
            assert rt.virtual_time > clean_time
        assert stats["transfer_retries"] == 1
        assert stats["transfer_failures"] == 0

    def test_exhausted_retries_fall_back_to_replica(self):
        plan = FailurePlan().fail_transfer("consume-3", 0, 1, 2)
        with COMPSsRuntime(sim_config(rf=2, plan=plan)) as rt:
            assert rt.wait_on(diamond(rt, output_mb=40.0)) == 6
            stats = rt.integrity.stats()
            events = integrity_events(rt)
        assert stats["transfer_retries"] == 2
        assert stats["transfer_failures"] == 1
        assert stats["replica_repairs"] == 1
        assert events.count((rsl.TRANSFER_RETRY, "consume-3")) == 2
        assert (rsl.TRANSFER_FAILED, "consume-3") in events
        assert (rsl.REPLICA_REPAIR, "consume-3") in events

    def test_exhausted_retries_without_replica_recompute(self):
        plan = FailurePlan().fail_transfer("consume-3", 0, 1, 2)
        with COMPSsRuntime(sim_config(rf=1, plan=plan)) as rt:
            assert rt.wait_on(diamond(rt, output_mb=40.0)) == 6
            stats = rt.integrity.stats()
        assert stats["transfer_failures"] == 1
        assert stats["recomputes"] == 1

    def test_zero_retry_budget_escalates_immediately(self):
        plan = FailurePlan().fail_transfer("consume-3", 0)
        with COMPSsRuntime(sim_config(rf=2, plan=plan, retries=0)) as rt:
            assert rt.wait_on(diamond(rt, output_mb=40.0)) == 6
            stats = rt.integrity.stats()
        assert stats["transfer_retries"] == 0
        assert stats["transfer_failures"] == 1
        assert stats["replica_repairs"] == 1

    def test_transfer_failure_marks_source_unhealthy(self):
        plan = FailurePlan().fail_transfer("consume-3", 0, 1, 2)
        with COMPSsRuntime(sim_config(rf=2, plan=plan)) as rt:
            rt.wait_on(diamond(rt, output_mb=40.0))
            details = [
                e.detail for e in rt.resilience.events
                if e.kind == rsl.TRANSFER_FAILED
            ]
        assert details and "failed after 3 attempts" in details[0]

    def test_degraded_link_slows_transfer(self):
        def run(plan):
            with COMPSsRuntime(sim_config(plan=plan)) as rt:
                assert rt.wait_on(diamond(rt, output_mb=400.0)) == 6
                return rt.virtual_time

        nodes = [n.name for n in mare_nostrum4(4).nodes]
        degraded = FailurePlan()
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    degraded.degrade_link(src, dst, 50.0)
        assert run(degraded) > run(FailurePlan())


# ----------------------------------------------------------------------
# Chaos acceptance: corrupted + torn study converges to the clean answer
# ----------------------------------------------------------------------
def space():
    return parse_search_space(
        {"optimizer": ["Adam", "SGD"], "num_epochs": [2, 4], "batch_size": [32]}
    )


def run_study(seed, chaos):
    plan = FailurePlan()
    injector = None
    if chaos:
        # Scripted corruption guarantees both repair paths fire on every
        # seed; the random rates layer ambient chaos on top.
        plan.corrupt_output("experiment-1", scope="all")
        plan.corrupt_output("experiment-3", scope="primary")
        injector = FailureInjector(
            plan=plan, seed=seed,
            output_corrupt_prob=0.10, transfer_failure_prob=0.05,
        )
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(4),
        executor="simulated",
        execute_bodies=True,
        verify_outputs=True,
        replication_factor=2,
        transfer_retries=2,
        failure_injector=injector,
    )
    runtime = COMPSsRuntime(cfg).start()
    try:
        runner = PyCOMPSsRunner(
            GridSearch(space()),
            objective=fast_mock_objective,
            constraint=ResourceConstraint(cpu_units=48),
            visualize=True,
        )
        # Give outputs wire weight so transfer chaos has a surface.
        runner._experiment_def.output_size_mb = 30.0
        runner._viz_def.output_size_mb = 5.0
        study = runner.run()
        return {
            "best": study.best_trial().config,
            "n_complete": sum(
                1 for t in study.trials if t.status.value == "completed"
            ),
            "stats": runtime.integrity.stats(),
            "events": [
                (e.kind, e.task_label, e.node) for e in runtime.resilience.events
            ],
            "virtual_time": runtime.virtual_time,
        }
    finally:
        runtime.stop(wait=False)


class TestChaosAcceptance:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_chaotic_study_converges_to_clean_answer(self, seed):
        clean = run_study(seed, chaos=False)
        dirty = run_study(seed, chaos=True)
        assert dirty["best"] == clean["best"]
        assert dirty["n_complete"] == clean["n_complete"] == 4
        stats = dirty["stats"]
        # Every read was verified; both repair paths exercised.
        assert stats["unverified_reads"] == 0
        assert stats["corruptions_detected"] >= 2
        assert stats["replica_repairs"] >= 1
        assert stats["recomputes"] >= 1
        assert clean["stats"]["unverified_reads"] == 0
        assert clean["stats"]["corruptions_detected"] == 0

    def test_chaos_run_is_deterministic(self):
        a = run_study(23, chaos=True)
        b = run_study(23, chaos=True)
        assert a["best"] == b["best"]
        assert a["events"] == b["events"]
        assert a["stats"] == b["stats"]
        assert a["virtual_time"] == pytest.approx(b["virtual_time"])
