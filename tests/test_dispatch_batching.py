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
* ``manage_gc`` freezes the heap during a session and restores it after.
"""

import gc
import json

import pytest

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor.simulated import SimulatedExecutor
from repro.runtime.task_definition import reset_invocation_counter
from repro.simcluster.events import DiscreteEventSimulator
from repro.simcluster.machines import local_machine, mare_nostrum4


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
