"""Tests for the schedulers (FIFO, priority, locality, multinode)."""

import pytest

from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.fault import UnsatisfiableError
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler import (
    FIFOScheduler,
    LocalityScheduler,
    PriorityScheduler,
    get_scheduler,
)
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    reset_invocation_counter,
)
from repro.simcluster.machines import heterogeneous, local_machine, mare_nostrum4


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


def assign(scheduler, ready, pool):
    """Reference placer: one ``_try_place`` pass in ``sort_key`` order.

    Returns ``(assignments, still_waiting)``, ``still_waiting`` in the
    order handed in.  A task no node could ever host raises; a starved
    one (capable nodes all dead or draining) just keeps waiting.
    """
    quarantined = pool.blocked_nodes()
    assignments, placed = [], set()
    for task in sorted(ready, key=scheduler.sort_key):
        try:
            a = scheduler._try_place(task, pool, quarantined)
        except UnsatisfiableError as exc:
            if exc.permanent:
                raise
            a = None
        if a is not None:
            assignments.append(a)
            placed.add(task.task_id)
    return assignments, [t for t in ready if t.task_id not in placed]


def make_task(cpu=1, gpu=0, priority=False, name="t", nodes=1):
    definition = TaskDefinition(
        func=lambda *a, **k: None,
        name=name,
        priority=priority,
        constraint=ResourceConstraint(cpu_units=cpu, gpu_units=gpu, nodes=nodes),
    )
    return TaskInvocation(definition=definition, args=(), kwargs={})


class TestFIFO:
    def test_places_in_submission_order(self):
        pool = ResourcePool(local_machine(2))
        tasks = [make_task() for _ in range(3)]
        assignments, waiting = assign(FIFOScheduler(), tasks, pool)
        assert [a.task for a in assignments] == tasks[:2]
        assert waiting == tasks[2:]

    def test_fig5_wave_shape(self):
        # 27 single-core tasks on a 48-core node with 24 reserved: 24 run,
        # 3 wait (paper Fig. 5).
        pool = ResourcePool(mare_nostrum4(1), reserved_cores=24)
        tasks = [make_task() for _ in range(27)]
        assignments, waiting = assign(FIFOScheduler(), tasks, pool)
        assert len(assignments) == 24
        assert len(waiting) == 3

    def test_unsatisfiable_constraint_raises(self):
        pool = ResourcePool(local_machine(2))
        with pytest.raises(RuntimeError, match="unsatisfiable"):
            assign(FIFOScheduler(), [make_task(cpu=100)], pool)

    def test_temporarily_blocked_waits(self):
        pool = ResourcePool(local_machine(2))
        big = make_task(cpu=2)
        assignments, _ = assign(FIFOScheduler(), [big], pool)
        assert assignments
        # A second 2-core task must wait, not raise.
        a2, w2 = assign(FIFOScheduler(), [make_task(cpu=2)], pool)
        assert not a2 and len(w2) == 1

    def test_avoids_failed_nodes(self):
        pool = ResourcePool(mare_nostrum4(2))
        t = make_task()
        t.failed_nodes.append("mn4-0001")
        assignments, _ = assign(FIFOScheduler(), [t], pool)
        assert assignments[0].allocation.node == "mn4-0002"

    def test_failed_node_used_as_last_resort(self):
        pool = ResourcePool(mare_nostrum4(1))
        t = make_task()
        t.failed_nodes.append("mn4-0001")
        assignments, _ = assign(FIFOScheduler(), [t], pool)
        assert assignments[0].allocation.node == "mn4-0001"


class TestPriority:
    def test_priority_jumps_queue(self):
        pool = ResourcePool(local_machine(1))
        normal = make_task(name="normal")
        urgent = make_task(priority=True, name="urgent")
        assignments, waiting = assign(PriorityScheduler(), [normal, urgent], pool)
        assert assignments[0].task is urgent
        assert waiting == [normal]

    def test_fifo_among_equal_priority(self):
        pool = ResourcePool(local_machine(2))
        tasks = [make_task() for _ in range(2)]
        assignments, _ = assign(PriorityScheduler(), tasks, pool)
        assert [a.task for a in assignments] == tasks


class TestLocality:
    def test_prefers_producer_node(self):
        pool = ResourcePool(mare_nostrum4(3))
        sched = LocalityScheduler()
        producer = make_task(name="producer")
        producer.node = "mn4-0003"
        consumer = make_task(name="consumer")
        sched.register_dependencies(consumer, [producer])
        assignments, _ = assign(sched, [consumer], pool)
        assert assignments[0].allocation.node == "mn4-0003"

    def test_falls_back_when_producer_node_full(self):
        pool = ResourcePool(mare_nostrum4(2))
        sched = LocalityScheduler()
        producer = make_task()
        producer.node = "mn4-0001"
        pool.try_allocate(ResourceConstraint(cpu_units=48))  # fill node 1
        consumer = make_task()
        sched.register_dependencies(consumer, [producer])
        assignments, _ = assign(sched, [consumer], pool)
        assert assignments[0].allocation.node == "mn4-0002"

    def test_no_producers_behaves_like_fifo(self):
        pool = ResourcePool(mare_nostrum4(1))
        sched = LocalityScheduler()
        t = make_task()
        assignments, _ = assign(sched, [t], pool)
        assert assignments[0].task is t


class TestImplementSelection:
    def test_alternative_chosen_when_primary_unsatisfiable_now(self):
        pool = ResourcePool(heterogeneous(cpu_nodes=1, gpu_nodes=0))
        gpu_def = TaskDefinition(
            func=lambda: None,
            name="gpu_impl",
            constraint=ResourceConstraint(cpu_units=4, gpu_units=1),
        )
        cpu_def = TaskDefinition(
            func=lambda: None,
            name="cpu_impl",
            constraint=ResourceConstraint(cpu_units=4),
        )
        gpu_def.implementations.append(cpu_def)
        t = TaskInvocation(definition=gpu_def, args=(), kwargs={})
        assignments, _ = assign(FIFOScheduler(), [t], pool)
        assert assignments[0].implementation is cpu_def

    def test_primary_preferred_when_possible(self):
        pool = ResourcePool(heterogeneous(cpu_nodes=1, gpu_nodes=1))
        gpu_def = TaskDefinition(
            func=lambda: None,
            name="gpu_impl",
            constraint=ResourceConstraint(cpu_units=4, gpu_units=1),
        )
        cpu_def = TaskDefinition(
            func=lambda: None, name="cpu_impl",
            constraint=ResourceConstraint(cpu_units=4),
        )
        gpu_def.implementations.append(cpu_def)
        t = TaskInvocation(definition=gpu_def, args=(), kwargs={})
        assignments, _ = assign(FIFOScheduler(), [t], pool)
        assert assignments[0].implementation is gpu_def
        assert assignments[0].allocation.gpu_units == 1


class TestMultinode:
    def test_spans_distinct_nodes(self):
        pool = ResourcePool(mare_nostrum4(3))
        t = make_task(cpu=48, nodes=2)
        assignments, _ = assign(FIFOScheduler(), [t], pool)
        a = assignments[0]
        nodes = {alloc.node for alloc in a.all_allocations}
        assert len(nodes) == 2
        assert all(alloc.cpu_units == 48 for alloc in a.all_allocations)

    def test_waits_when_not_enough_nodes_free(self):
        pool = ResourcePool(mare_nostrum4(2))
        pool.try_allocate(ResourceConstraint(cpu_units=48))
        t = make_task(cpu=48, nodes=2)
        assignments, waiting = assign(FIFOScheduler(), [t], pool)
        assert not assignments and waiting == [t]
        # All-or-nothing: the probe must not leak allocations.
        assert pool.try_allocate(ResourceConstraint(cpu_units=48)) is not None


class TestRegistry:
    @pytest.mark.parametrize("name", ["fifo", "priority", "locality"])
    def test_lookup(self, name):
        assert get_scheduler(name) is not None

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_scheduler("rr")
