"""Per-task runtime state: an independent task keeps only what it uses.

Structure: an independent task owns no adjacency list, no pending count
and no bookkeeping container of its own (it shares the empty ones); an
edge creates exactly the entries it needs, and the pending counts stay
exact — an entry exists only while a task still waits — through
completion, streaming free and lineage invalidation.

Budget: the bytes one live independent task holds, measured with
tracemalloc on the simulated executor with the journal on and
``stream_completed`` (the ``stream_75k_journal_sim`` shape).
"""

import gc
import tracemalloc

import pytest

from repro.pycompss_api import compss_wait_on, task
from repro.pycompss_api.parameter import IN, INOUT
from repro.runtime.access_processor import AccessProcessor
from repro.runtime.config import RuntimeConfig
from repro.runtime.future import Future
from repro.runtime.graph import TaskGraph
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    TaskState,
    reset_invocation_counter,
)
from repro.simcluster.machines import local_machine

DEFN = TaskDefinition(func=lambda *a: None, name="t")


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


def make_task(*args):
    return TaskInvocation(definition=DEFN, args=args)


def entries(graph, task):
    """Which per-task graph tables hold an entry for ``task``."""
    tid = task.task_id
    return {
        name
        for name, table in (
            ("succ", graph._succ),
            ("pred", graph._pred),
            ("pending", graph._pending_preds),
        )
        if tid in table
    }


def pending(graph):
    """The pending-predecessor table, keyed by task label."""
    return {
        graph._tasks[tid].label: n for tid, n in graph._pending_preds.items()
    }


class TestIndependentTask:
    def test_leaves_no_graph_entries(self):
        g = TaskGraph()
        a, b = make_task(1), make_task(2)
        g.add_task(a, [])
        g.add_task(b, [])
        assert entries(g, a) == entries(g, b) == set()
        assert [t.state for t in (a, b)] == [TaskState.READY] * 2
        g.pop_ready()
        g.mark_done(a)
        assert entries(g, a) == set() and not g._pending_preds

    def test_shares_the_empty_containers(self):
        a, b = make_task(1), make_task(2)
        assert a.kwargs is b.kwargs == {}
        assert a.attempt_history is b.attempt_history == ()
        assert a.failed_nodes is b.failed_nodes == ()
        ap = AccessProcessor()
        va = ap._info_for_future(Future(a)).current
        vb = ap._info_for_future(Future(b)).current
        assert va.readers is vb.readers == ()

    def test_first_write_makes_a_private_list(self):
        a, b = make_task(), make_task()
        a.add_history("attempt 1 on n1: boom -> retry_same_node")
        a.add_failed_node("n1")
        a.add_failed_node("n2")
        assert a.attempt_history == ["attempt 1 on n1: boom -> retry_same_node"]
        assert a.failed_nodes == ["n1", "n2"]
        assert b.attempt_history == () and b.failed_nodes == ()

    def test_caller_kwargs_are_kept_when_given(self):
        kw = {"lr": 0.1}
        assert make_task().kwargs is not kw
        assert TaskInvocation(definition=DEFN, kwargs=kw).kwargs is kw

    def test_written_labels_in_write_order(self):
        # The lineage / integrity detail strings list these labels.
        ap = AccessProcessor()
        obj = [1]
        t = make_task(obj)
        ap.process_access(t, obj, INOUT)
        fut = Future(t)
        ap.register_output_future(fut)
        assert [v.label for v in ap.versions_written_by(t)] == ["d1v2", "d2v1"]
        reader = make_task()
        ap.process_access(reader, fut, IN)
        assert ap._future_data[fut.data_id].current.readers == [reader]


def outputs(*n_returns):
    """One registered task per entry, with that many return slots."""
    ap = AccessProcessor()
    tasks = []
    for n in n_returns:
        t = make_task()
        for i in range(n):
            ap.register_output_future(Future(t, i))
        tasks.append(t)
    return ap, tasks


class TestOutputRecords:
    """A return slot gets a data id at submit, a record on first need."""

    def test_unread_output_leaves_no_record(self):
        ap, (a, b) = outputs(1, 3)
        assert [f.data_id for f in ap.futures_of(b.task_id)] == [2, 3, 4]
        assert not ap._future_data and not ap._by_writer

    def test_read_output_creates_exactly_one_record(self):
        ap, (a,) = outputs(1)
        fut = ap.futures_of(a.task_id)[0]
        r1, r2 = make_task(), make_task()
        assert ap.process_access(r1, fut, IN) == ({a}, ["d1v1"])
        assert ap.process_access(r2, fut, IN) == ({a}, ["d1v1"])
        assert list(ap._future_data) == [fut.data_id]
        assert ap._future_data[fut.data_id].current.readers == [r1, r2]
        assert not ap._by_writer

    def test_streaming_free_drops_the_record(self):
        ap, (a, b) = outputs(1, 1)
        fa = ap.futures_of(a.task_id)[0]
        ap.process_access(make_task(), fa, IN)
        ap.release_task(a.task_id)
        ap.release_task(b.task_id)
        assert not (ap._future_data or ap._futures or ap._by_writer)
        # A late reader of a released future books a fresh datum.
        assert ap.process_access(make_task(), fa, IN) == ({a}, ["d3v1"])

    def test_lineage_queries_make_the_records_in_write_order(self):
        ap, (a,) = outputs(3)
        futs = ap.futures_of(a.task_id)
        ap.process_access(make_task(), futs[2], IN)
        assert [v.label for v in ap.versions_written_by(a)] == [
            "d1v1", "d2v1", "d3v1",
        ]
        assert sorted(ap._future_data) == [1, 2, 3]
        assert [i for i, _ in ap.future_versions(a)] == [0, 1, 2]

    def test_revalidation_makes_no_record(self):
        ap, (a, b) = outputs(1, 1)
        assert ap.invalidate_versions_written_by([a]) == ["d1v1"]
        ap.revalidate_versions_written_by(b)
        assert list(ap._future_data) == [1]
        ap.revalidate_versions_written_by(a)
        assert ap.invalidated_labels() == []


class TestEdges:
    def test_an_edge_creates_exactly_its_entries(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [a], {a.task_id: "d1v1"})
        assert entries(g, a) == {"succ"}
        assert entries(g, b) == {"pred", "pending"}
        assert g._succ[a.task_id] == [b.task_id]
        assert g._pred[b.task_id] == [a.task_id]
        assert pending(g) == {b.label: 1}
        assert g.edge_label(a, b) == "d1v1"
        assert g.successors(a) == [b] and g.predecessors(b) == [a]
        assert g.successors(b) == [] and g.predecessors(a) == []

    def test_done_producer_adds_an_edge_but_no_count(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.pop_ready()
        g.mark_done(a)
        g.add_task(b, [a])
        assert entries(g, b) == {"pred"}
        assert b.state is TaskState.READY

    def test_edges_iterate_in_producer_order(self):
        # Adjacency entries appear at a producer's first consumer; the
        # DOT export still lists edges by producer id.
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [])
        c, d = make_task(), make_task()
        g.add_task(c, [b])
        g.add_task(d, [a])
        assert [(s.label, t.label) for s, t, _ in g.edges()] == [
            (a.label, d.label), (b.label, c.label),
        ]
        assert list(g.nx_graph.edges()) == [
            (a.task_id, d.task_id), (b.task_id, c.task_id),
        ]


class TestExactCounts:
    def test_chain_through_done_streaming_free_and_invalidate(self):
        g = TaskGraph()
        g.stream_completed = True
        a, b, c = make_task(), make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [b])
        assert pending(g) == {b.label: 1, c.label: 1}
        g.pop_ready()
        assert g.mark_done(a) == [b]
        assert pending(g) == {c.label: 1}
        g.pop_ready()
        assert g.mark_done(b) == [c]
        # a's only consumer finished: a is freed with all its entries.
        assert a.task_id not in g._tasks and entries(g, a) == set()
        assert pending(g) == {}
        # b's output is lost while c waits to run: b re-executes (its
        # freed producer counts as done) and c waits for it again.
        assert g.invalidate([b]) == [b]
        assert pending(g) == {c.label: 1}
        assert c.state is TaskState.SUBMITTED
        assert g.pop_ready() == [b]
        assert g.mark_done(b) == [c]
        assert pending(g) == {}
        g.pop_ready()
        g.mark_done(c)
        assert g.n_tasks == 0 and g.freed_tasks == 3
        assert not (g._succ or g._pred or g._pending_preds)
        assert not (g._unfinished_succs or g._labels)

    def test_diamond_through_done_and_invalidate(self):
        g = TaskGraph()
        a, b, c, d = (make_task() for _ in range(4))
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [a])
        g.add_task(d, [b, c])
        assert pending(g) == {b.label: 1, c.label: 1, d.label: 2}
        g.pop_ready()
        assert g.mark_done(a) == [b, c]
        assert pending(g) == {d.label: 2}
        g.pop_ready(1)
        g.mark_done(b)
        assert pending(g) == {d.label: 1}
        # a is lost before c ran: c waits again, DONE b keeps its result.
        assert g.invalidate([a]) == [a]
        assert pending(g) == {c.label: 1, d.label: 1}
        assert g.pop_ready() == [a]
        assert g.mark_done(a) == [c]
        assert pending(g) == {d.label: 1}
        g.pop_ready()
        assert g.mark_done(c) == [d]
        assert pending(g) == {}
        g.pop_ready()
        g.mark_done(d)
        assert pending(g) == {}
        assert [t.state for t in (a, b, c, d)] == [TaskState.DONE] * 4

    def test_diamond_streaming_frees_everything(self):
        g = TaskGraph()
        g.stream_completed = True
        a, b, c, d = (make_task() for _ in range(4))
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [a])
        g.add_task(d, [b, c])
        for _ in range(3):
            for t in g.pop_ready():
                g.mark_done(t)
        assert g.n_tasks == 0 and g.freed_tasks == 4
        assert not (g._succ or g._pred or g._pending_preds)
        assert not (g._unfinished_succs or g._labels)


@task(returns=int)
def tiny(x):
    return x + 1


def sim_config(**overrides):
    cfg = dict(
        cluster=local_machine(4),
        executor="simulated",
        execute_bodies=True,
        graph=False,
        duration_fn=lambda t, spec, alloc: 1.0,
    )
    cfg.update(overrides)
    return RuntimeConfig(**cfg)


class TestOutputRecordsInRuntime:
    def test_only_read_outputs_get_records(self):
        with COMPSsRuntime(sim_config()) as rt:
            a, b = tiny(1), tiny(2)
            c = tiny(a)
            assert compss_wait_on([b, c]) == [3, 3]
            access = rt.access
            assert list(access._future_data) == [a.data_id]
            assert not access._by_writer
            assert [f.data_id for f in access.futures_of(c.invocation.task_id)] == [
                c.data_id
            ]

    def test_streaming_free_drops_read_records(self):
        with COMPSsRuntime(sim_config(stream_completed=True)) as rt:
            futs = [tiny(i) for i in range(10)]
            chain = [tiny(f) for f in futs]
            assert compss_wait_on(chain) == [i + 2 for i in range(10)]
            access = rt.access
            assert not (access._future_data or access._futures or access._by_writer)


#: Bytes one live independent task may hold (graph node, future and its
#: data id, journal key).  Measured at 626 B on CPython 3.11; a data
#: record per return slot made it ~1.03 kB, and per-task adjacency
#: lists, pending counts, label lists and bookkeeping lists ~1.67 kB.
LIVE_TASK_BUDGET_B = 700


def test_live_independent_task_stays_under_budget(tmp_path):
    cfg = RuntimeConfig(
        cluster=local_machine(4),
        executor="simulated",
        execute_bodies=True,
        stream_completed=True,
        graph=False,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=None,
        journal_fsync="off",
        duration_fn=lambda t, spec, alloc: 1.0,
    )
    n = 5000
    with COMPSsRuntime(cfg):
        compss_wait_on([tiny(i) for i in range(100)])  # warm every path
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            futures = [tiny(i) for i in range(n)]
            per_task = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert compss_wait_on(futures[-1]) == n
    assert per_task < LIVE_TASK_BUDGET_B, f"{per_task:.0f} B per live task"
