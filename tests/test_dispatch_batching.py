"""Batched dispatch rounds: equivalence, event core, streaming, knobs.

The batching tentpole buffers clean completions and replays them through
one engine drain per simulator wake.  These tests pin its contract:

* placements are byte-identical to the unbatched round-per-event path
  (``batch_wakes=False``) under every scheduling policy, with tracing on
  too — and so are the trace records, in fewer scheduling rounds;
* the vectorised event core (``step_batch``) is observably identical to
  repeated ``step`` calls;
* ``stream_completed`` frees finished tasks while results stay correct;
* journal writes are buffered but lose nothing by ``stop()``;
* ``manage_gc`` freezes the heap during a session and restores it after;
* a drain unit hands its slots straight to the next task of its class
  only where the release-and-probe replay would do the same, and random
  mixes place, trace and time identically with and without batching.
"""

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pycompss_api import COMPSs, compss_wait_on, constraint, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatch import DispatchEngine
from repro.runtime.executor.simulated import SimulatedExecutor
from repro.runtime.fault import RetryPolicy
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler.fifo import FIFOScheduler
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    reset_invocation_counter,
)
from repro.simcluster.events import DiscreteEventSimulator
from repro.simcluster.failures import ChurnPlan, FailureInjector, FailurePlan
from repro.simcluster.machines import ClusterSpec, local_machine, mare_nostrum4
from repro.simcluster.node import NodeSpec


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


@task(returns=int)
def produce(x):
    return x


@task(returns=int)
def combine(a, b):
    return a + b


def _layered_workload():
    """40 sources feeding 20 pair-combines feeding 10 pair-combines."""
    sources = [produce(i) for i in range(40)]
    mids = [
        combine(sources[2 * i], sources[2 * i + 1]) for i in range(20)
    ]
    tops = [combine(mids[2 * i], mids[2 * i + 1]) for i in range(10)]
    return tops


def _run_recorded(scheduler: str, batch_wakes: bool):
    """Run the layered workload; return every (time, task, node, cores)."""
    return _run(scheduler, batch_wakes)[0]


def _run(scheduler: str, batch_wakes: bool, tracing: bool = False):
    """Run the layered workload: placements, trace records, rounds."""
    records = []
    orig = SimulatedExecutor._start

    def recording_start(self, assignment, speculative=False):
        records.append(
            (
                self.sim.now,
                assignment.task.label,
                assignment.allocation.node,
                assignment.allocation.cpu_ids,
            )
        )
        return orig(self, assignment, speculative)

    reset_invocation_counter()
    cfg = RuntimeConfig(
        cluster=mare_nostrum4(2),
        scheduler=scheduler,
        executor="simulated",
        tracing=tracing,
        execute_bodies=True,  # real results: the dataflow is verified too
        batch_wakes=batch_wakes,
        # Uneven durations so completions interleave and contention for
        # the pool changes over time.
        duration_fn=lambda t, spec, alloc: 1.0 + (t.task_id % 7) * 0.25,
    )
    SimulatedExecutor._start = recording_start
    try:
        with COMPSs(cfg) as rt:
            out = compss_wait_on(_layered_workload())
    finally:
        SimulatedExecutor._start = orig
    assert out == [sum(range(4 * i, 4 * i + 4)) for i in range(10)]
    return records, rt.tracer.records, rt.dispatcher.stats.rounds


class TestBatchedEqualsUnbatched:
    @pytest.mark.parametrize(
        "scheduler", ["fifo", "priority", "lpt", "locality"]
    )
    def test_placements_byte_identical(self, scheduler):
        batched = _run_recorded(scheduler, batch_wakes=True)
        unbatched = _run_recorded(scheduler, batch_wakes=False)
        assert batched == unbatched
        assert len(batched) == 70

    @pytest.mark.parametrize(
        "scheduler", ["fifo", "priority", "lpt", "locality"]
    )
    def test_traced_run_stays_batched(self, scheduler):
        batched, traced, rounds = _run(scheduler, True, tracing=True)
        unbatched, traced_ref, _ = _run(scheduler, False, tracing=True)
        assert batched == unbatched
        assert traced == traced_ref
        assert len(traced) == 70
        # Tracing no longer forces a scheduling round per completion.
        assert rounds < len(batched)


class TestStepBatch:
    def test_batch_fires_all_same_timestamp_events(self):
        sim = DiscreteEventSimulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, args=(i,))
        sim.schedule(2.0, fired.append, args=(99,))
        assert sim.step_batch() == 5
        assert fired == [0, 1, 2, 3, 4]  # strict (time, seq) order
        assert sim.now == 1.0
        assert sim.step_batch() == 1
        assert fired[-1] == 99
        assert sim.step_batch() == 0

    def test_batch_includes_sametime_events_scheduled_midbatch(self):
        # An event firing at t may schedule more work at t; step_batch
        # must pick it up in seq order, exactly like repeated step().
        sim = DiscreteEventSimulator()
        fired = []

        def chain(i):
            fired.append(i)
            if i < 3:
                sim.schedule(0.0, chain, args=(i + 1,))

        sim.schedule(1.0, chain, args=(0,))
        assert sim.step_batch() == 4
        assert fired == [0, 1, 2, 3]

    def test_peek_time_skips_cancelled(self):
        sim = DiscreteEventSimulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 1.0
        h1.cancel()
        assert sim.peek_time() == 2.0
        assert sim.step_batch() == 1
        assert sim.peek_time() is None


class TestStreamingGraph:
    def test_stream_completed_frees_tasks_and_keeps_results(self):
        cfg = RuntimeConfig(
            cluster=local_machine(8),
            executor="simulated",
            tracing=False,
            graph=False,
            execute_bodies=True,
            stream_completed=True,
            duration_fn=lambda t, spec, alloc: 1.0,
        )
        n = 2000
        with COMPSs(cfg) as rt:
            out = compss_wait_on([produce(i) for i in range(n)])
            freed = rt.graph.freed_tasks
            live = rt.graph.n_tasks
        assert out == list(range(n))
        # Completed history is freed as consumers finish, not retained.
        assert freed >= n * 0.9
        assert live <= n * 0.1

    def test_streaming_off_retains_graph(self):
        cfg = RuntimeConfig(
            cluster=local_machine(8),
            executor="simulated",
            tracing=False,
            duration_fn=lambda t, spec, alloc: 1.0,
        )
        with COMPSs(cfg) as rt:
            compss_wait_on([produce(i) for i in range(100)])
            assert rt.graph.freed_tasks == 0
            assert rt.graph.n_tasks == 100


class TestJournalBuffering:
    def test_buffered_journal_loses_nothing_by_stop(self, tmp_path):
        cfg = RuntimeConfig(
            cluster=local_machine(8),
            executor="simulated",
            tracing=False,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=None,
            journal_fsync="off",
            journal_buffer_records=64,
            duration_fn=lambda t, spec, alloc: 1.0,
        )
        n = 150  # not a multiple of the buffer size: a tail stays buffered
        with COMPSs(cfg):
            compss_wait_on([produce(i) for i in range(n)])
        journals = list(tmp_path.glob("*.journal")) or [
            p for p in tmp_path.iterdir() if p.is_file()
        ]
        records = []
        for path in journals:
            for line in path.read_text().splitlines():
                if line.strip():
                    records.append(json.loads(line))
        # One record per task: a session marker, then n completions with
        # distinct keys and strictly increasing seq — nothing lost by stop().
        assert [r["rec"] for r in records] == ["session"] + ["completed"] * n
        assert len({r["key"] for r in records[1:]}) == n
        seqs = [r["seq"] for r in records]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))


class TestManageGC:
    def test_freezes_during_session_and_restores_after(self):
        cfg = RuntimeConfig(
            cluster=local_machine(4),
            executor="simulated",
            tracing=False,
            manage_gc=True,
            duration_fn=lambda t, spec, alloc: 1.0,
        )
        assert gc.get_freeze_count() == 0
        with COMPSs(cfg):
            compss_wait_on([produce(i) for i in range(10)])
            assert gc.get_freeze_count() > 0
            assert gc.isenabled()  # the collector is never disabled
        assert gc.get_freeze_count() == 0

    def test_opt_out_never_freezes(self):
        cfg = RuntimeConfig(
            cluster=local_machine(4),
            executor="simulated",
            tracing=False,
            manage_gc=False,
            duration_fn=lambda t, spec, alloc: 1.0,
        )
        with COMPSs(cfg):
            compss_wait_on([produce(i) for i in range(10)])
            assert gc.get_freeze_count() == 0


# ----------------------------------------------------------------------
# Hand-off: a freed slot goes straight to the next task of its class
# ----------------------------------------------------------------------
@constraint(computing_units=1)
@task(returns=int)
def one_cpu(*xs):
    return sum(xs) + 1


@constraint(computing_units=1)
@task(returns=int)
def one_cpu_too(*xs):
    """Same constraint class as ``one_cpu``, another body."""
    return sum(xs) + 10


@constraint(computing_units=2)
@task(returns=int)
def two_cpu(*xs):
    return sum(xs) + 2


_MIX_TASKS = {f.__name__: f for f in (one_cpu, one_cpu_too, two_cpu)}


class _Quarantine:
    """Stands in for the pool's health tracker: one node always benched."""

    def __init__(self, node):
        self.node = node

    def blocked_nodes(self):
        return [self.node]


def _cluster(cores, gpus=0):
    return ClusterSpec(
        name="prop",
        nodes=[
            NodeSpec(
                name=f"n{i}", cpu_cores=c, gpus=gpus, memory_gb=16.0,
                core_gflops=8.0, gpu_gflops=100.0 if gpus else 0.0,
                gpu_memory_gb=8.0 if gpus else 0.0,
            )
            for i, c in enumerate(cores)
        ],
    )


@st.composite
def _mixes(draw):
    cores = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    # One class, two classes, or two definitions sharing one class.
    names = draw(st.sampled_from([
        ["one_cpu"], ["two_cpu"], ["one_cpu", "two_cpu"],
        ["one_cpu", "one_cpu_too"],
    ]))
    n = draw(st.integers(1, 40))
    tasks = []
    for i in range(n):
        name = draw(st.sampled_from(names))
        deps = draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else []
        tasks.append((name, sorted(set(deps))))
    nodes = [f"n{i}" for i in range(len(cores))]
    return {
        "cores": cores,
        "tasks": tasks,
        # Few distinct durations: completions tie and drain in batches.
        "durations": draw(
            st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=1, max_size=4)
        ),
        "fail": draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)),
        "quarantine": draw(st.none() | st.sampled_from(nodes)),
        "drain": draw(st.none() | st.tuples(
            st.sampled_from(nodes), st.sampled_from([0.5, 1.0, 2.5]),
        )),
        "scheduler": draw(st.sampled_from(["fifo", "locality"])),
    }


def _run_mix(mix, batch_wakes):
    """Run one drawn mix; return placements, trace, outcome and stats.

    The outcome is the results and the end time, or the error the wait
    raised, so the property compares failures across modes as well.
    """
    reset_invocation_counter()
    starts = []
    orig = SimulatedExecutor._start

    def recording_start(self, assignment, speculative=False):
        starts.append((
            self.sim.now,
            assignment.task.label,
            assignment.allocation.node,
            assignment.allocation.cpu_ids,
        ))
        return orig(self, assignment, speculative)

    durations = mix["durations"]
    plan = FailurePlan()
    for i in mix["fail"]:
        # Task ids start at 1 after the reset; a first attempt that fails
        # is resubmitted away from its node (``failed_nodes``).
        plan.fail_task(f"{mix['tasks'][i][0]}-{i + 1}", 0)
    churn = ChurnPlan()
    if mix["drain"] is not None:
        node, at = mix["drain"]
        churn.notice(node, at, lead_s=2.0, rejoin_at=at + 3.0)
    cfg = RuntimeConfig(
        cluster=_cluster(mix["cores"]),
        executor="simulated",
        scheduler=mix["scheduler"],
        execute_bodies=True,
        tracing=True,
        batch_wakes=batch_wakes,
        retry_policy=RetryPolicy(same_node_retries=0, resubmissions=2),
        failure_injector=FailureInjector(plan, churn=churn),
        duration_fn=lambda t, spec, alloc: durations[t.task_id % len(durations)],
    )
    SimulatedExecutor._start = recording_start
    try:
        with COMPSs(cfg) as rt:
            if mix["quarantine"] is not None:
                rt.pool.health = _Quarantine(mix["quarantine"])
            futs = []
            for name, deps in mix["tasks"]:
                futs.append(_MIX_TASKS[name](*[futs[d] for d in deps]))
            try:
                outcome = (compss_wait_on(futs), rt.executor.now)
            except Exception as exc:  # noqa: BLE001 - compared across modes
                outcome = (repr(exc), rt.executor.now)
    finally:
        SimulatedExecutor._start = orig
    return starts, rt.tracer.records, outcome, rt.dispatcher.stats


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mixes())
def test_hand_off_keeps_batched_runs_identical(mix):
    batched = _run_mix(mix, batch_wakes=True)
    unbatched = _run_mix(mix, batch_wakes=False)
    assert batched[:3] == unbatched[:3]
    assert batched[3].placed == unbatched[3].placed == len(batched[0])


def test_queued_consumer_of_lost_data_waits_for_its_rerun_producers():
    """Shrunk from the property above.  Task 5 reads tasks 1 and 3, and
    is queued when the drain of their node runs out its lead time.  Node
    loss re-runs 1 and 3 and must pull 5 back out of the dispatch queue;
    left queued, it started as soon as one producer finished, and a
    batched drain started it a second time when the other readied it."""
    mix = {
        "cores": [4],
        "tasks": [("one_cpu", [])] * 4 + [("one_cpu", [0, 2])]
        + [("one_cpu", [])] * 9,
        "durations": [3.5, 1.0],
        "fail": [],
        "quarantine": None,
        "drain": ("n0", 0.5),
        "scheduler": "fifo",
    }
    batched = _run_mix(mix, batch_wakes=True)
    unbatched = _run_mix(mix, batch_wakes=False)
    for starts in (batched[0], unbatched[0]):
        assert [label for _, label, _, _ in starts].count("one_cpu-5") == 1
    assert batched[:3] == unbatched[:3]


@pytest.mark.parametrize("batch_wakes", [True, False])
def test_wait_survives_a_drain_that_loses_a_producer(batch_wakes):
    """Task 2 reads task 1; the node's drain runs out its lead time while
    task 2 is queued.  The wait used to raise "future of one_cpu-1
    accessed before completion" at t = 6.5 (task 2 had started on the
    lost output), and a second wait stalled."""
    mix = {
        "cores": [3],
        "tasks": [("one_cpu", []), ("one_cpu", [0])] + [("one_cpu", [])] * 3,
        "durations": [1.0, 3.5],
        "fail": [],
        "quarantine": None,
        "drain": ("n0", 2.5),
        "scheduler": "fifo",
    }
    _, _, outcome, _ = _run_mix(mix, batch_wakes=batch_wakes)
    assert outcome == ([1, 2, 1, 1, 1], 10.026)


def _engine(cores, nodes=1, gpus=0):
    pool = ResourcePool(_cluster([cores] * nodes, gpus))
    engine = DispatchEngine(FIFOScheduler(), pool)
    pool.listener = engine
    return pool, engine


def _tasks(definition, n):
    return [TaskInvocation(definition, (), {}) for _ in range(n)]


def _definition(cpus=1, gpus=0):
    return TaskDefinition(
        func=lambda: None, name=f"t{cpus}",
        constraint=ResourceConstraint(cpu_units=cpus, gpu_units=gpus),
    )


class TestHandOff:
    @staticmethod
    def _stream_waves(batch_wakes, cores=4, n=200, waves=3):
        """Dispatch-stat deltas of each wave of the stream shape."""
        deltas = []
        with COMPSs(RuntimeConfig(
            cluster=local_machine(cores),
            executor="simulated",
            tracing=False,
            graph=False,
            execute_bodies=True,
            stream_completed=True,
            batch_wakes=batch_wakes,
            duration_fn=lambda t, spec, alloc: 1.0,
        )) as rt:
            stats = rt.dispatcher.stats
            for _ in range(waves):
                before = stats.snapshot()
                assert compss_wait_on([produce(i) for i in range(n)])[-1] == n - 1
                after = stats.snapshot()
                deltas.append({k: after[k] - before[k] for k in after})
        return deltas

    def test_stream_hands_off_all_but_the_first_placements(self):
        cores, n = 4, 200
        batched = self._stream_waves(True, cores, n)
        replayed = self._stream_waves(False, cores, n)
        for wave, replay in zip(batched, replayed):
            # The first ``cores`` tasks of a wave are probed onto an idle
            # machine (the first wave probes once more, to find it full);
            # every later task takes a finished task's CPU.
            assert wave["handoffs"] == n - cores
            assert wave["placement_probes"] <= cores + 1
            assert wave["placed"] == replay["placed"] == n
            # The round-per-event path probes where the drain handed off,
            # and records the same wakes and blocked-class skips.
            assert replay["handoffs"] == 0
            assert (
                wave["placement_probes"] + wave["handoffs"]
                == replay["placement_probes"]
            )
            assert wave["wakes"] == replay["wakes"]
            assert wave["blocked_skips"] == replay["blocked_skips"]

    def test_head_gets_the_finished_tasks_slots(self):
        pool, engine = _engine(cores=2)
        definition = _definition()
        tasks = _tasks(definition, 4)
        engine.ingest(tasks)
        first, second = engine.schedule_round()
        assert engine.schedule_round() == []  # the class is blocked
        (handed,) = engine.drain([(second, [])])
        assert handed.task is tasks[2]
        assert handed.allocation is not second.allocation
        assert (handed.allocation.node, handed.allocation.cpu_ids) == ("n0", (1,))
        assert engine.stats.handoffs == 1
        assert engine.stats.placement_probes == 3  # 2 placed + 1 that blocked

    @pytest.mark.parametrize("case", [
        "two_cpu_one_free", "gpu_left_free", "quarantined", "draining",
        "retried", "purged",
    ])
    def test_probe_path_when_the_hand_off_is_not_exact(self, case):
        cpus = 2 if case == "two_cpu_one_free" else 1
        gpus = 1 if case == "gpu_left_free" else 0
        # A second node keeps a quarantined n0 from being the last resort.
        pool, engine = _engine(
            cores=3 if cpus == 2 else 2,
            nodes=2 if case == "quarantined" else 1,
            gpus=3 if gpus else 0,
        )
        definition = _definition(cpus, gpus)
        tasks = _tasks(definition, 6)
        engine.ingest(tasks)
        placed = engine.schedule_round()
        assert engine.schedule_round() == []  # the class is blocked
        finished = placed[0]
        head = tasks[len(placed)]
        if case == "quarantined":
            pool.health = _Quarantine("n0")
            assert engine.schedule_round() == []  # re-blocked, avoiding n0
        elif case == "draining":
            pool.drain_worker("n0")
            assert engine.schedule_round() == []  # re-blocked on a draining node
        elif case == "retried":
            head.add_failed_node("n-elsewhere")
        elif case == "purged":
            engine.purge([head])
            head = tasks[len(placed) + 1]
        probes = engine.stats.placement_probes
        out = engine.drain([(finished, [])])
        assert engine.stats.handoffs == 0
        assert engine.stats.placement_probes > probes
        if case in ("draining", "quarantined"):
            assert out == []
        else:
            (assignment,) = out
            assert assignment.task is head
            assert assignment.allocation.cpu_ids == finished.allocation.cpu_ids
