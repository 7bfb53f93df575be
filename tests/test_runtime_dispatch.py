"""Tests for the incremental dispatch fast path.

Covers: TaskGraph ready-set correctness (out-of-order completions,
diamond dependencies, linear-cost bookkeeping on a 10k-node graph),
DispatchEngine vs batch ``Scheduler.assign`` placement equivalence for
every policy, event-driven blocked-class wake behaviour, and zero-cost
tracing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatch import DispatchEngine
from repro.runtime.graph import TaskGraph
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler import (
    FIFOScheduler,
    LocalityScheduler,
    LPTScheduler,
    PriorityScheduler,
)
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    TaskState,
    reset_invocation_counter,
)
from repro.simcluster.machines import ClusterSpec, local_machine, mare_nostrum4
from repro.simcluster.node import NodeSpec
from tests.test_runtime_scheduler import assign


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


def make_task(cpu=1, gpu=0, priority=False, name="t", epochs=None):
    definition = TaskDefinition(
        func=lambda *a, **k: None,
        name=name,
        priority=priority,
        constraint=ResourceConstraint(cpu_units=cpu, gpu_units=gpu),
    )
    args = ({"num_epochs": epochs},) if epochs is not None else ()
    return TaskInvocation(definition=definition, args=args, kwargs={})


# ----------------------------------------------------------------------
# TaskGraph ready-set correctness
# ----------------------------------------------------------------------
class TestTaskGraphReadySet:
    def test_diamond_dependency(self):
        g = TaskGraph()
        a, b, c, d = (make_task(name=n) for n in "abcd")
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [a])
        g.add_task(d, [b, c])
        assert g.pop_ready() == [a]
        newly = g.mark_done(a)
        assert newly == [b, c]
        assert g.pop_ready() == [b, c]
        # d is ready only after BOTH b and c complete.
        assert g.mark_done(b) == []
        assert g.peek_ready() == []
        assert g.mark_done(c) == [d]
        assert g.pop_ready() == [d]

    def test_out_of_order_completions(self):
        # Independent roots completed in reverse order must each release
        # exactly their own successor, exactly once.
        g = TaskGraph()
        roots = [make_task(name=f"r{i}") for i in range(5)]
        succs = [make_task(name=f"s{i}") for i in range(5)]
        for r in roots:
            g.add_task(r, [])
        for r, s in zip(roots, succs):
            g.add_task(s, [r])
        g.pop_ready()
        released = []
        for r in reversed(roots):
            released.extend(g.mark_done(r))
        assert released == list(reversed(succs))
        assert [t.state for t in succs] == [TaskState.READY] * 5

    def test_dependency_on_already_done_task(self):
        g = TaskGraph()
        a = make_task(name="a")
        g.add_task(a, [])
        g.pop_ready()
        g.mark_done(a)
        b = make_task(name="b")
        g.add_task(b, [a])
        # The predecessor is DONE: b must be immediately ready.
        assert g.pop_ready() == [b]

    def test_10k_graph_linear_ready_ops(self):
        # Layered 10k-node graph: bookkeeping must stay O(V + E), not
        # O(V²) — asserted via the ready-set operation counter.
        g = TaskGraph()
        n_layers, width = 100, 100
        prev = []
        edges = 0
        for layer in range(n_layers):
            current = []
            for i in range(width):
                t = make_task(name=f"l{layer}-{i}")
                deps = [prev[i]] if prev else []
                edges += len(deps)
                g.add_task(t, deps)
                current.append(t)
            prev = current
        total = n_layers * width
        done = 0
        while True:
            ready = g.pop_ready()
            if not ready:
                break
            for t in ready:
                g.mark_done(t)
                done += 1
        assert done == total
        # pops + pushes + edge visits: a small constant times V + E.
        assert g.ready_ops <= 4 * (total + edges)


# ----------------------------------------------------------------------
# Engine vs batch assign: identical placements for every policy
# ----------------------------------------------------------------------
def reference_assignments(scheduler, tasks, pool, complete_batches):
    """Reference semantics: a full placement pass on every event."""
    waiting = list(tasks)
    placed = []
    running = []
    for batch in complete_batches:
        assignments, waiting = assign(scheduler, waiting, pool)
        placed.extend(assignments)
        running.extend(assignments)
        for _ in range(min(batch, len(running))):
            a = running.pop(0)
            pool.release(a.allocation)
    while True:
        assignments, waiting = assign(scheduler, waiting, pool)
        if not assignments:
            break
        placed.extend(assignments)
        for a in assignments:
            pool.release(a.allocation)
    return [(a.task.task_id, a.allocation.node, a.implementation.name)
            for a in placed]


def engine_assignments(scheduler, tasks, pool, complete_batches):
    """Fast-path semantics: incremental rounds with wake notifications."""
    engine = DispatchEngine(scheduler, pool)
    pool.listener = engine
    engine.ingest(tasks)
    placed = []
    running = []
    for batch in complete_batches:
        assignments = engine.schedule_round()
        placed.extend(assignments)
        running.extend(assignments)
        for _ in range(min(batch, len(running))):
            a = running.pop(0)
            pool.release(a.allocation)  # notifies the engine
    while True:
        assignments = engine.schedule_round()
        if not assignments:
            break
        placed.extend(assignments)
        for a in assignments:
            pool.release(a.allocation)
    return [(a.task.task_id, a.allocation.node, a.implementation.name)
            for a in placed]


def mixed_workload(seed):
    rng = random.Random(seed)
    tasks = []
    for i in range(60):
        cpu = rng.choice([1, 1, 2, 4])
        priority = rng.random() < 0.2
        epochs = rng.choice([1, 5, 20])
        tasks.append(
            make_task(cpu=cpu, priority=priority, name=f"k{cpu}", epochs=epochs)
        )
    return tasks


POLICIES = [
    ("fifo", FIFOScheduler),
    ("priority", PriorityScheduler),
    ("lpt", LPTScheduler),
    ("locality", LocalityScheduler),
]


class TestEngineMatchesBatchAssign:
    @pytest.mark.parametrize("name,factory", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_placements(self, name, factory, seed):
        # The fast path must change cost, not placement semantics.
        reset_invocation_counter()
        tasks_a = mixed_workload(seed)
        reset_invocation_counter()
        tasks_b = mixed_workload(seed)
        batches = [3, 1, 5, 2, 8, 4]
        ref = reference_assignments(
            factory(), tasks_a, ResourcePool(local_machine(8)), batches
        )
        fast = engine_assignments(
            factory(), tasks_b, ResourcePool(local_machine(8)), batches
        )
        assert fast == ref
        assert len(ref) == 60

    def test_locality_preference_survives_fast_path(self):
        pool = ResourcePool(mare_nostrum4(3))
        sched = LocalityScheduler()
        engine = DispatchEngine(sched, pool)
        pool.listener = engine
        producer = make_task(name="producer")
        producer.node = "mn4-0003"
        consumer = make_task(name="consumer")
        sched.register_dependencies(consumer, [producer])
        engine.ingest([consumer])
        (assignment,) = engine.schedule_round()
        assert assignment.allocation.node == "mn4-0003"


# ----------------------------------------------------------------------
# Event-driven blocked-class behaviour
# ----------------------------------------------------------------------
class TestBlockedClassWakes:
    def test_blocked_class_not_reprobed_until_release(self):
        pool = ResourcePool(local_machine(2))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        tasks = [make_task(cpu=2, name="big") for _ in range(4)]
        engine.ingest(tasks)
        (first,) = engine.schedule_round()
        probes = engine.stats.placement_probes
        # Nothing changed: further rounds must not probe placement again.
        for _ in range(10):
            assert engine.schedule_round() == []
        assert engine.stats.placement_probes == probes
        assert engine.stats.blocked_skips >= 10
        # A release wakes the class and the next task places.
        pool.release(first.allocation)
        (second,) = engine.schedule_round()
        assert second.task is tasks[1]

    def test_class_empty_at_a_topology_change_is_still_woken(self):
        # A topology change rebuilds the node->class wake index.  A class
        # with nothing queued at that moment must stay in it, or its
        # later tasks, once blocked, wait for the next topology change
        # instead of the next release.
        pool = ResourcePool(local_machine(2))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        tasks = [make_task(name="t") for _ in range(4)]
        engine.ingest(tasks[:2])
        first, _second = engine.schedule_round()
        engine.on_topology_change()
        assert engine.schedule_round() == []
        engine.ingest(tasks[2:])
        assert engine.schedule_round() == []  # blocked: the node is full
        pool.release(first.allocation)
        (third,) = engine.schedule_round()
        assert third.task is tasks[2]
        assert third.allocation.cpu_ids == first.allocation.cpu_ids

    def test_unsatisfiable_task_raises_from_round(self):
        pool = ResourcePool(local_machine(2))
        engine = DispatchEngine(FIFOScheduler(), pool)
        engine.ingest([make_task(cpu=100)])
        with pytest.raises(RuntimeError, match="unsatisfiable"):
            engine.schedule_round()

    def test_failed_node_task_does_not_block_class(self):
        # A resubmitted task refusing its failed node must not stop
        # same-class tasks behind it from placing elsewhere.
        pool = ResourcePool(mare_nostrum4(1))
        # Fill the node except one slot so exactly one 48-core... use
        # simpler shape: 1 node, the resubmitted task avoids it, a clean
        # task behind it takes it.
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        burned = make_task(cpu=48, name="burned")
        burned.add_failed_node("mn4-0001")
        clean = make_task(cpu=48, name="clean")
        engine.ingest([burned, clean])
        assignments = engine.schedule_round()
        # The burned task uses the failed node only as a last resort —
        # with capacity for one task, policy order gives it the node
        # first (matching the batch path); what matters here is that the
        # round places exactly one task and the other stays queued.
        assert len(assignments) == 1
        assert engine.pending() == 1

    def test_node_recovery_unblocks(self):
        # All nodes that could ever host the task are down: the class is
        # *starved*, not permanently unsatisfiable — the engine holds the
        # task (awaiting a rejoin or the starvation watchdog) instead of
        # raising.
        pool = ResourcePool(mare_nostrum4(2))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        pool.fail_node("mn4-0001")
        pool.fail_node("mn4-0002")
        t = make_task(cpu=48)
        engine.ingest([t])
        assert engine.schedule_round() == []
        assert len(engine.starved_classes()) == 1
        assert engine.stats.classes_starved == 1
        pool.recover_node("mn4-0001")
        (assignment,) = engine.schedule_round()
        assert assignment.allocation.node == "mn4-0001"
        assert engine.starved_classes() == {}

    def test_starved_class_reaped_after_timeout(self):
        clock = {"now": 0.0}
        pool = ResourcePool(mare_nostrum4(2))
        engine = DispatchEngine(FIFOScheduler(), pool)
        engine.clock = lambda: clock["now"]
        engine.starvation_timeout_s = 30.0
        pool.listener = engine
        pool.fail_node("mn4-0001")
        pool.fail_node("mn4-0002")
        tasks = [make_task(cpu=48) for _ in range(3)]
        engine.ingest(tasks)
        assert engine.schedule_round() == []
        assert engine.next_starvation_deadline() == 30.0
        clock["now"] = 29.0
        assert engine.reap_starved() == []  # not yet
        clock["now"] = 30.0
        reaped = engine.reap_starved()
        assert [t.task_id for t, _ in reaped] == [t.task_id for t in tasks]
        assert all(waited == 30.0 for _, waited in reaped)
        assert engine.pending() == 0
        assert engine.stats.starvation_failures == 3
        assert engine.next_starvation_deadline() is None


# ----------------------------------------------------------------------
# End-to-end: linear dispatch cost through the simulated executor
# ----------------------------------------------------------------------
class TestEndToEndScaling:
    def test_5k_study_linear_placement_probes(self):
        n = 5000

        @task(returns=int)
        def tiny(x):
            return x + 1

        cfg = RuntimeConfig(
            cluster=local_machine(16), tracing=False, executor="simulated",
            execute_bodies=True, duration_fn=lambda t, s, a: 1.0,
        )
        with COMPSs(cfg) as rt:
            futs = [tiny(i) for i in range(n)]
            out = compss_wait_on(futs)
            stats = rt.dispatcher.stats.snapshot()
        assert out == [i + 1 for i in range(n)]
        # The classic path needed O(n²) ≈ 12M probes here; the fast path
        # must stay linear: one probe per placement plus one failed probe
        # per blocked round, under two per task.
        assert stats["placed"] == n
        assert stats["placement_probes"] < 2 * n
        assert stats["ingested"] == n

    def test_tracing_off_records_nothing(self):
        @task(returns=int)
        def tiny(x):
            return x + 1

        cfg = RuntimeConfig(
            cluster=local_machine(4), tracing=False, executor="simulated",
            duration_fn=lambda t, s, a: 1.0,
        )
        with COMPSs(cfg) as rt:
            compss_wait_on([tiny(i) for i in range(10)])
            assert rt.tracer.records == []
            assert rt.analysis().records == []

    def test_local_executor_uses_fast_path(self):
        @task(returns=int)
        def tiny(x):
            return x + 1

        cfg = RuntimeConfig(cluster=local_machine(4), tracing=False)
        with COMPSs(cfg) as rt:
            out = compss_wait_on([tiny(i) for i in range(50)])
            stats = rt.dispatcher.stats.snapshot()
        assert out == [i + 1 for i in range(50)]
        assert stats["placed"] == 50


# ----------------------------------------------------------------------
# Purge / tombstone hygiene
# ----------------------------------------------------------------------
class TestPurgeTombstoneHygiene:
    def test_mass_purge_compacts_heaps(self):
        # Lazy deletion must not let dead entries dominate the heaps: a
        # mass invalidation (lineage recovery under churn) triggers a
        # rebuild that drops every tombstone in one pass.
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        tasks = [make_task(name=f"t{i}") for i in range(500)]
        engine.ingest(tasks)
        (first,) = engine.schedule_round()  # one core: one placed
        engine.purge(tasks[1:400])
        # Tombstones outnumbered live entries, so the heaps were rebuilt
        # without them and the tombstone set is empty again.
        # A class queue is a run (deque) or a heap; one of them is empty.
        total_queued = sum(len(cq.run or cq.heap) for cq in engine._classes.values())
        assert total_queued == 100
        assert engine.pending() == 100
        assert not engine._purged
        # Revived (re-readied) tasks are clean re-ingests after the
        # compaction dropped their entries.
        engine.ingest(tasks[1:400])
        assert engine.pending() == 499
        assert len(engine.waiting_tasks()) == 499

    def test_small_purge_stays_lazy(self):
        # Below the compaction threshold the tombstones stay in place
        # (O(1) purge) but pending() already excludes them.
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        tasks = [make_task(name=f"s{i}") for i in range(20)]
        engine.ingest(tasks)
        (first,) = engine.schedule_round()
        engine.purge(tasks[1:6])
        # A class queue is a run (deque) or a heap; one of them is empty.
        total_queued = sum(len(cq.run or cq.heap) for cq in engine._classes.values())
        assert total_queued == 19  # entries still there...
        assert engine.pending() == 14  # ...but not counted
        assert len(engine.waiting_tasks()) == 14

    def test_pending_agrees_with_graph_after_cancel_resubmit(self):
        # Repeated invalidate/re-ready cycles on queued tasks must not
        # drift the engine's queue accounting from the graph's view, and
        # every task must still place exactly once, in policy order.
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        g = TaskGraph()
        tasks = [make_task(name=f"c{i}") for i in range(10)]
        for t in tasks:
            g.add_task(t, [])
        engine.ingest(g.pop_ready())
        (a0,) = engine.schedule_round()
        assert a0.task is tasks[0]
        for _ in range(5):
            engine.purge(tasks[1:6])
            assert engine.pending() == 4
            engine.ingest(tasks[1:6])  # re-readied: revived in place
            assert engine.pending() == 9
        assert len(engine.waiting_tasks()) == engine.pending() == 9
        placed = [a0]
        while True:
            pool.release(placed[-1].allocation)
            got = engine.schedule_round()
            if not got:
                break
            placed.extend(got)
        # All ten placed exactly once, in FIFO submission order (revived
        # entries keep their original position).
        assert [a.task.task_id for a in placed] == [t.task_id for t in tasks]


# ----------------------------------------------------------------------
# Multi-study fair share (service mode)
# ----------------------------------------------------------------------
def make_study_task(study, cpu=1, name=None):
    t = make_task(cpu=cpu, name=name or f"{study}-task")
    t.study = study
    return t


def drain_one_at_a_time(engine, pool, rounds):
    """Capacity-1 drive: place one task per round, release it at once.

    Returns the study of each placement in order — the engine's
    long-run schedule, which the stride tests assert ratios over.
    """
    order = []
    for _ in range(rounds):
        assignments = engine.schedule_round()
        if not assignments:
            break
        for a in assignments:
            order.append(a.task.study)
            pool.release(a.allocation)
    return order


class TestFairShareScheduling:
    def test_weights_converge_to_cpu_share_ratio(self):
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        engine.register_study("heavy", weight=2.0)
        engine.register_study("light", weight=1.0)
        engine.ingest(
            [make_study_task("heavy") for _ in range(40)]
            + [make_study_task("light") for _ in range(40)]
        )
        order = drain_one_at_a_time(engine, pool, rounds=30)
        counts = {s: order.count(s) for s in set(order)}
        # Stride scheduling: a weight-2 study gets ~2x the placements
        # of a weight-1 peer while both have queued work.
        assert counts["heavy"] == pytest.approx(2 * counts["light"], abs=2)
        assert engine.stats.fair_rounds > 0

    def test_priority_band_places_strictly_first(self):
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        engine.register_study("urgent", priority=5)
        engine.register_study("batch", priority=0)
        engine.ingest(
            [make_study_task("batch") for _ in range(5)]
            + [make_study_task("urgent") for _ in range(5)]
        )
        order = drain_one_at_a_time(engine, pool, rounds=10)
        assert order == ["urgent"] * 5 + ["batch"] * 5

    def test_tenant_slot_quota_blocks_placements(self):
        pool = ResourcePool(local_machine(4))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        engine.register_study(
            "capped", tenant="acme", max_tenant_slots=2,
        )
        engine.register_study("free", tenant="other")
        engine.ingest(
            [make_study_task("capped") for _ in range(4)]
            + [make_study_task("free") for _ in range(2)]
        )
        placed = engine.schedule_round()
        by_study = {}
        for a in placed:
            by_study.setdefault(a.task.study, []).append(a)
        # The capped tenant stops at its slot quota; the other tenant
        # fills the remaining capacity.
        assert len(by_study["capped"]) == 2
        assert len(by_study["free"]) == 2
        assert engine.stats.quota_skips > 0
        assert pool.tenant_load("acme") == 2
        # Releasing a capped placement frees the quota for the next one.
        pool.release(by_study["capped"][0].allocation)
        assert pool.tenant_load("acme") == 1
        (next_placed,) = engine.schedule_round()
        assert next_placed.task.study == "capped"

        # A lone capped study: the quota holds with no competitor, and
        # its running slots are charged to the tenant.
        pool = ResourcePool(local_machine(4))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        engine.register_study("capped", tenant="acme", max_tenant_slots=2)
        engine.ingest([make_study_task("capped") for _ in range(4)])
        capped = engine.schedule_round()
        assert len(capped) == 2
        assert pool.tenant_load("acme") == 2
        assert engine.stats.quota_skips > 0
        # A neighbour arrives: the earlier slots still count, so the
        # capped tenant stays at quota and the neighbour fills the rest.
        engine.register_study("free", tenant="other")
        engine.ingest([make_study_task("free") for _ in range(2)])
        placed = engine.schedule_round()
        assert [a.task.study for a in placed] == ["free", "free"]
        assert pool.tenant_load("acme") == 2
        pool.release(capped[0].allocation)
        (next_placed,) = engine.schedule_round()
        assert next_placed.task.study == "capped"

    def test_single_study_run_keeps_legacy_path(self):
        """Placements with one registered study are byte-identical to a
        plain run, and the fair-share merge never engages."""
        def drive(register):
            reset_invocation_counter()
            pool = ResourcePool(local_machine(2))
            engine = DispatchEngine(FIFOScheduler(), pool)
            pool.listener = engine
            if register:
                engine.register_study("only")
            tasks = [
                make_study_task("only" if register else "", name=f"t{i}")
                for i in range(12)
            ]
            engine.ingest(tasks)
            order = []
            while True:
                assignments = engine.schedule_round()
                if not assignments:
                    break
                for a in assignments:
                    order.append((a.task.definition.name, a.allocation.node))
                    pool.release(a.allocation)
            return order, engine.stats.fair_rounds

        legacy, legacy_fair = drive(register=False)
        solo, solo_fair = drive(register=True)
        assert solo == legacy
        assert legacy_fair == 0 and solo_fair == 0

    def test_late_joiner_starts_at_band_vtime(self):
        pool = ResourcePool(local_machine(1))
        engine = DispatchEngine(FIFOScheduler(), pool)
        pool.listener = engine
        engine.register_study("early1")
        engine.register_study("early2")
        engine.ingest(
            [make_study_task("early1") for _ in range(20)]
            + [make_study_task("early2") for _ in range(20)]
        )
        drain_one_at_a_time(engine, pool, rounds=10)
        shares = engine.study_shares()
        band_min = min(shares["early1"]["vtime"], shares["early2"]["vtime"])
        assert band_min > 0
        engine.register_study("late")
        # The newcomer inherits the band's minimum vtime instead of 0,
        # so it cannot monopolise the pool to "catch up".
        assert engine.study_shares()["late"]["vtime"] == band_min
        engine.ingest([make_study_task("late") for _ in range(10)])
        order = drain_one_at_a_time(engine, pool, rounds=12)
        assert set(order) == {"early1", "early2", "late"}
        assert 3 <= order.count("late") <= 5

    def test_unregister_study_is_idempotent(self):
        engine = DispatchEngine(FIFOScheduler(), ResourcePool(local_machine(1)))
        engine.register_study("gone")
        engine.unregister_study("gone")
        engine.unregister_study("gone")
        assert engine.study_shares() == {}


# ----------------------------------------------------------------------
# Run queues (a FIFO class queue as a deque)
# ----------------------------------------------------------------------
def _engine(runs=True, scheduler=None):
    nodes = [
        NodeSpec(name=name, cpu_cores=2, gpus=0, memory_gb=16.0, core_gflops=8.0)
        for name in ("a", "b")
    ]
    pool = ResourcePool(ClusterSpec(name="two", nodes=nodes))
    engine = DispatchEngine(scheduler or FIFOScheduler(), pool)
    pool.listener = engine
    if not runs:
        engine._runs = False
    return engine


class TestRunQueues:
    def test_in_order_ingest_is_a_run_queue(self):
        engine = _engine()
        tasks = [make_task() for _ in range(6)]
        engine.ingest(tasks[:4])
        engine.ingest(tasks[4:])
        (cq,) = engine._classes.values()
        assert list(cq.run) == tasks and cq.heap == []
        placed = [a.task for a in engine.schedule_round()]
        assert placed == tasks[:4]
        assert engine.waiting_tasks() == tasks[4:]

    def test_out_of_order_ingest_becomes_the_heap(self):
        engine = _engine()
        tasks = [make_task() for _ in range(5)]
        engine.ingest([tasks[1], tasks[3]])
        engine.ingest([tasks[2], tasks[0], tasks[4]])
        (cq,) = engine._classes.values()
        assert cq.run is None and len(cq.heap) == 5
        assert engine.waiting_tasks() == tasks
        assert [a.task for a in engine.schedule_round()] == tasks[:4]
        # Drained empty, the class queues a run again.
        cq.heap.clear()
        engine._queued.clear()
        engine.ingest([make_task()])
        assert cq.run is not None and len(cq.run) == 1

    def test_a_second_class_or_a_study_ends_runs(self):
        engine = _engine()
        engine.ingest([make_task(), make_task()])
        (cq,) = engine._classes.values()
        engine.ingest([make_task(cpu=2)])
        assert not engine._runs
        assert all(c.run is None for c in engine._classes.values())
        assert [t.task_id for _, _, t in sorted(cq.heap)] == [1, 2]
        other = _engine()
        other.ingest([make_task()])
        other.register_study("s1")
        assert not other._runs
        assert all(c.run is None for c in other._classes.values())

    def test_deferred_tasks_go_back_in_front(self):
        # Task 5 refuses node a: deferred while b is full, it must still
        # be first in line when b frees a CPU, as in the heap.
        for runs in (True, False):
            reset_invocation_counter()
            tasks = [make_task() for _ in range(8)]
            tasks[4].add_failed_node("a")
            engine = _engine(runs=runs)
            engine.ingest(tasks)
            first = engine.schedule_round()
            assert [a.task.task_id for a in first] == [1, 2, 3, 4]
            on_b = next(a for a in first if a.allocation.node == "b")
            engine.pool.release(on_b.allocation)
            assert [a.task.task_id for a in engine.schedule_round()] == [5]

    def test_other_policies_never_use_runs(self):
        engine = _engine(scheduler=PriorityScheduler())
        engine.ingest([make_task() for _ in range(3)])
        (cq,) = engine._classes.values()
        assert cq.run is None and len(cq.heap) == 3

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_places_exactly_as_the_heap(self, data):
        """Random ingest orders, rounds, releases, purges and deferred
        tasks: a run-queue engine and a heap-only one place the same
        tasks on the same CPUs in the same order."""
        reset_invocation_counter()
        tasks = [make_task() for _ in range(24)]
        for t in data.draw(st.lists(st.sampled_from(tasks), max_size=3)):
            t.add_failed_node("a")
        order = data.draw(st.permutations(tasks))
        runs, heaps = _engine(), _engine(runs=False)
        running = {id(runs): [], id(heaps): []}
        placed = {id(runs): [], id(heaps): []}
        at = 0
        steps = data.draw(st.lists(
            st.sampled_from(["ingest", "round", "release", "purge"]),
            min_size=1, max_size=40,
        ))
        for step in steps:
            if step == "ingest":
                k = data.draw(st.integers(min_value=1, max_value=6))
                batch, at = order[at:at + k], at + k
            elif step == "purge":
                victims = data.draw(st.lists(st.sampled_from(tasks), max_size=3))
            elif step == "release":
                if not running[id(runs)]:
                    continue
                i = data.draw(st.integers(0, len(running[id(runs)]) - 1))
            for engine in (runs, heaps):
                mine = running[id(engine)]
                if step == "ingest":
                    engine.ingest(batch)
                elif step == "purge":
                    engine.purge(victims)
                    engine.ingest(victims[:1])  # one is re-readied
                elif step == "release":
                    engine.pool.release(mine.pop(i).allocation)
                else:
                    for a in engine.schedule_round():
                        mine.append(a)
                        placed[id(engine)].append(
                            (a.task.task_id, a.allocation.node,
                             tuple(a.allocation.cpu_ids))
                        )
            assert runs.waiting_tasks() == heaps.waiting_tasks()
            assert runs.pending() == heaps.pending()
        assert placed[id(runs)] == placed[id(heaps)]
        assert runs.stats.snapshot() == heaps.stats.snapshot()
