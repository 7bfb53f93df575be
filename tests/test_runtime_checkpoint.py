"""Crash-consistency tests: write-ahead journal, checkpoint store,
recovery manager, exactly-once resume, and lineage-based data recovery."""

import contextlib
import json
import pickle
from collections import Counter

import pytest

from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import checkpoint as ckpt
from repro.runtime import resilience as rsl
from repro.runtime.checkpoint import (
    CheckpointStore,
    JournalCorruptError,
    RecoveryManager,
    TaskKeyer,
    WriteAheadJournal,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.future import Future
from repro.runtime.graph import TaskGraph
from repro.runtime.resilience import ResilienceLog
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition, TaskInvocation, TaskState
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import ClusterSpec, local_machine
from repro.simcluster.node import NodeSpec


def make_def(name="experiment", func=None, cpu=1):
    return TaskDefinition(
        func=func or (lambda *a, **k: 1),
        name=name,
        returns=int,
        n_returns=1,
        constraint=ResourceConstraint(cpu_units=cpu),
    )


def invocation(definition, *args, **kwargs):
    return TaskInvocation(definition=definition, args=args, kwargs=kwargs)


# ----------------------------------------------------------------------
# Deterministic task keys
# ----------------------------------------------------------------------
class TestTaskKeyer:
    def test_same_program_same_keys_across_processes(self):
        d = make_def()
        k1 = [TaskKeyer().key_for(t) for t in (invocation(d, {"lr": 0.1}),)]
        k2 = [TaskKeyer().key_for(t) for t in (invocation(d, {"lr": 0.1}),)]
        assert k1 == k2

    def test_different_params_different_keys(self):
        d = make_def()
        keyer = TaskKeyer()
        a = keyer.key_for(invocation(d, {"lr": 0.1}))
        b = keyer.key_for(invocation(d, {"lr": 0.2}))
        assert a != b

    def test_occurrence_disambiguates_identical_calls(self):
        d = make_def()
        keyer = TaskKeyer()
        a = keyer.key_for(invocation(d, {"lr": 0.1}))
        b = keyer.key_for(invocation(d, {"lr": 0.1}))
        assert a != b
        # A fresh keyer (new process) regenerates the same sequence.
        keyer2 = TaskKeyer()
        assert keyer2.key_for(invocation(d, {"lr": 0.1})) == a
        assert keyer2.key_for(invocation(d, {"lr": 0.1})) == b

    def test_future_args_digest_by_producer_key(self):
        d = make_def()
        keyer = TaskKeyer()
        producer = invocation(d, 1)
        consumer = invocation(d, Future(producer, 0))
        key = keyer.key_for(consumer)
        # Same chain in a new process: different Future objects, same keys.
        keyer2 = TaskKeyer()
        producer2 = invocation(d, 1)
        consumer2 = invocation(d, Future(producer2, 0))
        assert keyer2.key_for(consumer2) == key

    def test_kwargs_order_insensitive(self):
        d = make_def()
        a = TaskKeyer().key_for(invocation(d, x=1, y=2))
        b = TaskKeyer().key_for(invocation(d, y=2, x=1))
        assert a == b

    def test_containers_and_scalars_canonicalised(self):
        d = make_def()
        a = TaskKeyer().key_for(invocation(d, [1, (2, 3)], {"k": {4, 5}}))
        b = TaskKeyer().key_for(invocation(d, [1, (2, 3)], {"k": {5, 4}}))
        assert a == b

    def test_key_memoised_on_invocation(self):
        d = make_def()
        keyer = TaskKeyer()
        t = invocation(d, 1)
        assert keyer.key_for(t) is t.task_key
        assert keyer.key_for(t) == t.task_key


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
class TestWriteAheadJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        j = WriteAheadJournal(tmp_path / "journal.jsonl", fsync="off")
        j.open_session(cluster="c")
        j.append(ckpt.SUBMITTED, "k1", task="t-1")
        j.append(ckpt.COMPLETED, "k1", task="t-1", stored=True)
        j.close()
        records, truncated = WriteAheadJournal.replay(tmp_path / "journal.jsonl")
        assert not truncated
        assert [r["rec"] for r in records] == ["session", "submitted", "completed"]
        assert records[2]["stored"] is True

    def test_invalid_fsync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadJournal(tmp_path / "j.jsonl", fsync="sometimes")

    def test_append_after_close_is_noop(self, tmp_path):
        j = WriteAheadJournal(tmp_path / "j.jsonl", fsync="off")
        j.close()
        j.append(ckpt.SUBMITTED, "k")  # must not raise
        records, _ = WriteAheadJournal.replay(tmp_path / "j.jsonl")
        assert records == []

    def test_reopen_appends_with_session_marker(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j1 = WriteAheadJournal(path)
        j1.open_session()
        j1.append(ckpt.COMPLETED, "k1")
        j1.close()
        j2 = WriteAheadJournal(path)
        j2.open_session(resumed=True)
        j2.append(ckpt.COMPLETED, "k2")
        j2.close()
        records, _ = WriteAheadJournal.replay(path)
        sessions = [r for r in records if r["rec"] == ckpt.SESSION]
        assert len(sessions) == 2
        assert sessions[1]["resumed"] is True

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = json.dumps({"rec": "completed", "key": "k", "seq": 1})
        path.write_bytes(
            (good + "\n").encode() + b"NOT JSON AT ALL\n" + (good + "\n").encode()
        )
        with pytest.raises(JournalCorruptError):
            WriteAheadJournal.replay(path)

    def test_non_record_json_line_is_bad(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = json.dumps({"rec": "completed", "key": "k", "seq": 1})
        path.write_bytes((good + "\n").encode() + b'{"no_rec_field": 1}\n')
        records, truncated = WriteAheadJournal.replay(path)
        assert truncated and len(records) == 1


class TestTornWriteFuzz:
    """Satellite (a): a crash can tear the final record at ANY byte."""

    def _valid_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = WriteAheadJournal(path, fsync="off")
        j.open_session(cluster="fuzz")
        j.append(ckpt.SUBMITTED, "aaaa", task="t-1")
        j.append(ckpt.STARTED, "aaaa", task="t-1", node="n0")
        j.append(ckpt.COMPLETED, "aaaa", task="t-1", stored=True, extra="x" * 40)
        j.close()
        return path

    def test_truncation_at_every_byte_of_last_record(self, tmp_path):
        path = self._valid_journal(tmp_path)
        data = path.read_bytes()
        # Byte offset where the final record begins.
        last_start = data[:-1].rfind(b"\n") + 1
        n_full = len(data[:last_start].splitlines())
        for cut in range(last_start, len(data)):
            truncated_file = tmp_path / "cut.jsonl"
            truncated_file.write_bytes(data[:cut])
            log = ResilienceLog()
            records, torn = WriteAheadJournal.replay(truncated_file, log)
            # Never raises; keeps every full record; drops at most the tail.
            assert len(records) >= n_full
            if torn:
                assert log.counts().get(rsl.JOURNAL_TRUNCATED) == 1
                assert len(records) == n_full
            else:
                # Nothing torn: cut at the record boundary, or the whole
                # final record survived (only its newline was lost).
                assert cut == last_start or len(records) == n_full + 1

    def test_torn_tail_logged_once(self, tmp_path):
        path = self._valid_journal(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        log = ResilienceLog()
        _, torn = WriteAheadJournal.replay(path, log)
        assert torn
        events = [e for e in log.events if e.kind == rsl.JOURNAL_TRUNCATED]
        assert len(events) == 1 and "torn record" in events[0].detail


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "outputs")
        assert store.save("k1", {"val_accuracy": 0.9})
        assert store.has("k1")
        assert store.load("k1") == {"val_accuracy": 0.9}
        assert not store.has("k2")

    def test_cadence_every_n(self, tmp_path):
        store = CheckpointStore(tmp_path, cadence=3)
        decisions = [store.should_spill() for _ in range(9)]
        assert decisions == [False, False, True] * 3

    def test_cadence_none_never_spills(self, tmp_path):
        store = CheckpointStore(tmp_path, cadence=None)
        assert not any(store.should_spill() for _ in range(10))

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, cadence=0)

    def test_unpicklable_value_returns_false(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.save("bad", lambda: None) is False
        assert not store.has("bad")
        assert store.spilled == 0

    def test_no_tmp_litter_after_failed_save(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("bad", lambda: None)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_existing_key_not_rewritten(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", 1)
        assert store.save("k", 2)  # no-op, still True
        assert store.load("k") == 1


# ----------------------------------------------------------------------
# Recovery manager
# ----------------------------------------------------------------------
class TestRecoveryManager:
    def _journal(self, tmp_path, fill=True):
        j = WriteAheadJournal(tmp_path / ckpt.JOURNAL_FILE, fsync="off")
        if fill:
            j.open_session(cluster="c")
            j.append(ckpt.SUBMITTED, "done1")
            j.append(ckpt.SUBMITTED, "inflight")
            j.append(ckpt.STARTED, "done1", node="n0")
            j.append(ckpt.COMPLETED, "done1", stored=True)
            j.append(ckpt.STARTED, "inflight", node="n1")
        j.close()

    def test_replay_states_and_frontier(self, tmp_path):
        self._journal(tmp_path)
        rm = RecoveryManager(tmp_path)
        assert rm.completed_keys == {"done1"}
        assert rm.frontier() == ["inflight"]
        assert rm.sessions == 1

    def test_restorable_requires_stored_output(self, tmp_path):
        self._journal(tmp_path)
        rm = RecoveryManager(tmp_path)
        assert not rm.restorable("done1")  # journaled but never spilled
        CheckpointStore(tmp_path / ckpt.OUTPUTS_DIR).save("done1", 42)
        rm2 = RecoveryManager(tmp_path)
        assert rm2.restorable("done1")
        assert rm2.restored_result("done1") == 42
        assert rm2.restored == 1

    def test_missing_journal_is_empty_not_error(self, tmp_path):
        rm = RecoveryManager(tmp_path / "fresh")
        assert rm.records == [] and rm.completed_keys == set()
        assert rm.summary()["records"] == 0

    def test_unreadable_checkpoint_degrades_to_reexecution(self, tmp_path):
        self._journal(tmp_path)
        out = tmp_path / ckpt.OUTPUTS_DIR
        out.mkdir(exist_ok=True)
        (out / "done1.pkl").write_bytes(b"not a pickle")
        rm = RecoveryManager(tmp_path)
        assert rm.restored_result("done1") is ckpt._MISSING
        assert rm.restored == 0

    def test_summary_shape(self, tmp_path):
        self._journal(tmp_path)
        summary = RecoveryManager(tmp_path).summary()
        assert summary["tasks_seen"] == 2
        assert summary["completed"] == 1
        assert summary["frontier"] == 1
        assert summary["truncated_tail"] is False
        assert summary["record_kinds"]["submitted"] == 2


# ----------------------------------------------------------------------
# End-to-end resume (exactly-once for the replayed prefix)
# ----------------------------------------------------------------------
CALLS = Counter()


def counting_add(a, b):
    CALLS[("add", a, b)] += 1
    return a + b


def drive(runtime):
    """The 'driver program': a small chain, deterministic across runs."""
    d = make_def("add", counting_add)
    x = runtime.submit(d, (1, 2), {})
    y = runtime.submit(d, (x, 10), {})
    z = runtime.submit(d, (y, 100), {})
    return runtime.wait_on(z)


class TestRuntimeResume:
    def test_resume_restores_completed_prefix_exactly_once(self, tmp_path):
        CALLS.clear()
        cfg = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=1)
        rt = COMPSsRuntime(cfg).start()
        try:
            assert drive(rt) == 113
        finally:
            rt.stop()
        assert sum(CALLS.values()) == 3

        rt2 = COMPSsRuntime(RuntimeConfig(), resume_from=str(tmp_path)).start()
        try:
            assert drive(rt2) == 113
            stats = rt2.resume_stats()
            assert stats["restored_this_session"] == 3
            assert stats["completed"] == 3
        finally:
            rt2.stop()
        # Exactly-once: nothing from the journaled prefix re-executed.
        assert sum(CALLS.values()) == 3
        restores = [
            e for e in rt2.resilience.events
            if e.kind == rsl.CHECKPOINT_RESTORE
        ]
        assert len(restores) == 3

    def test_resume_accepts_journal_file_path(self, tmp_path):
        CALLS.clear()
        cfg = RuntimeConfig(checkpoint_dir=str(tmp_path))
        rt = COMPSsRuntime(cfg).start()
        try:
            drive(rt)
        finally:
            rt.stop()
        rt2 = COMPSsRuntime(
            RuntimeConfig(), resume_from=str(tmp_path / ckpt.JOURNAL_FILE)
        ).start()
        try:
            assert drive(rt2) == 113
            assert rt2.recovery is not None
        finally:
            rt2.stop()

    def test_partial_prefix_runs_only_the_frontier(self, tmp_path):
        """Drop one checkpoint file: only that task re-executes."""
        CALLS.clear()
        rt = COMPSsRuntime(
            RuntimeConfig(checkpoint_dir=str(tmp_path))
        ).start()
        try:
            drive(rt)
        finally:
            rt.stop()
        # Destroy the middle task's spilled output.
        victims = sorted((tmp_path / ckpt.OUTPUTS_DIR).glob("*.pkl"))
        assert len(victims) == 3
        keyer = TaskKeyer()
        d = make_def("add", counting_add)
        t1 = invocation(d, 1, 2)
        k1 = keyer.key_for(t1)
        t2 = invocation(d, Future(t1, 0), 10)
        k2 = keyer.key_for(t2)
        (tmp_path / ckpt.OUTPUTS_DIR / f"{k2}.pkl").unlink()
        CALLS.clear()
        rt2 = COMPSsRuntime(RuntimeConfig(), resume_from=str(tmp_path)).start()
        try:
            assert drive(rt2) == 113
        finally:
            rt2.stop()
        # Only the middle (unspilled) task re-ran; its input was restored.
        assert sum(CALLS.values()) == 1
        assert CALLS[("add", 3, 10)] == 1
        assert (tmp_path / ckpt.OUTPUTS_DIR / f"{k1}.pkl").exists()

    def test_journal_only_mode_reexecutes_but_knows_history(self, tmp_path):
        CALLS.clear()
        cfg = RuntimeConfig(checkpoint_dir=str(tmp_path), checkpoint_every=None)
        rt = COMPSsRuntime(cfg).start()
        try:
            drive(rt)
        finally:
            rt.stop()
        assert list((tmp_path / ckpt.OUTPUTS_DIR).glob("*.pkl")) == []
        rt2 = COMPSsRuntime(
            RuntimeConfig(checkpoint_every=None), resume_from=str(tmp_path)
        ).start()
        try:
            assert drive(rt2) == 113
            assert rt2.resume_stats()["completed"] == 3
            assert rt2.resume_stats()["restorable"] == 0
        finally:
            rt2.stop()
        assert sum(CALLS.values()) == 6  # 3 + 3 re-executions

    def test_failed_tasks_are_journaled_and_not_restored(self, tmp_path):
        def boom(config):
            raise RuntimeError("nope")

        from repro.runtime.fault import RetryPolicy, TaskFailedError

        cfg = RuntimeConfig(
            checkpoint_dir=str(tmp_path),
            retry_policy=RetryPolicy(0, 0),
        )
        rt = COMPSsRuntime(cfg).start()
        d = make_def("boom", boom)
        try:
            fut = rt.submit(d, ({"i": 0},), {})
            with pytest.raises(TaskFailedError):
                rt.wait_on(fut)
        finally:
            rt.stop(wait=False)
        rm = RecoveryManager(tmp_path)
        assert rm.completed_keys == set()
        assert ckpt.FAILED in {r["rec"] for r in rm.records}

    def test_commit_journal_costs_one_fsync_per_completion(
        self, tmp_path, monkeypatch
    ):
        """The crash-consistency tax as a count: under
        ``journal_fsync="commit"`` each completion costs one fsync, and
        each output spilled at cadence 10 two more (data, sidecar)."""
        fsyncs = []
        real_fsync = ckpt.os.fsync
        monkeypatch.setattr(
            ckpt.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        cfg = RuntimeConfig(
            cluster=local_machine(4), executor="simulated",
            execute_bodies=True, duration_fn=lambda t, s, a: 1.0,
            checkpoint_dir=str(tmp_path), checkpoint_every=10,
            journal_fsync="commit",
        )
        d = make_def("add", lambda a, b: a + b)
        with COMPSsRuntime(cfg) as rt:
            assert rt.wait_on(
                [rt.submit(d, (i, 1), {}) for i in range(27)]
            ) == list(range(1, 28))
        spills = len(list((tmp_path / ckpt.OUTPUTS_DIR).glob("*.pkl")))
        assert spills == 2  # the 10th and 20th of 27 completions
        # session record + one per completion + two per spill + close
        assert len(fsyncs) == 1 + 27 + 2 * spills + 1


# ----------------------------------------------------------------------
# Lineage-based data recovery (node loss)
# ----------------------------------------------------------------------
def three_node_cluster():
    nodes = [NodeSpec(name=f"n{i}", cpu_cores=4, memory_gb=16) for i in range(3)]
    return ClusterSpec(name="c3", nodes=nodes)


PRODUCE_CALLS = Counter()


def produce(tag):
    PRODUCE_CALLS[tag] += 1
    return tag * 10


def consume(v, tag):
    return v + tag


class TestLineageRecovery:
    def _run(self, tmp_path=None, destroy_data=True, checkpoint=False,
             study=False):
        """The node-loss scenario; ``study`` runs it inside a study
        session that owns the checkpoint directory."""
        PRODUCE_CALLS.clear()
        plan = FailurePlan()
        plan.fail_node("n0", time=5.0, recovery_time=50.0,
                       destroy_data=destroy_data)
        cfg = RuntimeConfig(
            cluster=three_node_cluster(),
            executor="simulated",
            execute_bodies=True,
            failure_injector=FailureInjector(plan),
            duration_fn=lambda t, s, a: 4.0,
            checkpoint_dir=str(tmp_path) if checkpoint and not study else None,
        )
        rt = COMPSsRuntime(cfg).start()
        p_def = make_def("produce", produce)
        c_def = make_def("consume", consume)
        scope = (
            rt.study_scope(rt.open_study(
                "s", checkpoint_dir=tmp_path if checkpoint else None
            ))
            if study else contextlib.nullcontext()
        )
        try:
            with scope:
                ps = [rt.submit(p_def, (i,), {}) for i in range(6)]
                cs = [rt.submit(c_def, (p, i), {}) for i, p in enumerate(ps)]
                results = rt.wait_on(cs)
        finally:
            rt.stop(wait=False)
        return rt, results

    def test_node_loss_recovers_without_escaping_failure(self):
        rt, results = self._run()
        assert results == [i * 10 + i for i in range(6)]
        counts = rt.resilience.counts()
        assert counts.get(rsl.NODE_LOST) == 1
        assert counts.get(rsl.LINEAGE_RECOVERY, 0) >= 1
        # Destroyed producers re-executed.
        assert sum(PRODUCE_CALLS.values()) > 6
        # Re-execution re-materialised everything.
        assert rt.access.invalidated_labels() == []

    def test_node_lost_event_lists_destroyed_versions(self):
        rt, _ = self._run()
        [event] = [e for e in rt.resilience.events if e.kind == rsl.NODE_LOST]
        assert event.node == "n0"
        assert "data version(s)" in event.detail
        n = int(event.detail.split()[1])
        assert n >= 1 and "d" in event.detail.split(": ", 1)[1]

    def test_destroy_data_false_is_clean_drain(self):
        rt, results = self._run(destroy_data=False)
        assert results == [i * 10 + i for i in range(6)]
        counts = rt.resilience.counts()
        assert counts.get(rsl.LINEAGE_RECOVERY, 0) == 0
        assert sum(PRODUCE_CALLS.values()) == 6
        [event] = [e for e in rt.resilience.events if e.kind == rsl.NODE_LOST]
        assert "destroyed 0 data version(s)" in event.detail

    @pytest.mark.parametrize("study", [False, True], ids=["solo", "study"])
    def test_checkpointed_outputs_survive_node_loss(self, tmp_path, study):
        """Spilled outputs are not resident on the node: no re-execution,
        whether the solo runtime or a study session spilled them."""
        rt, results = self._run(tmp_path=tmp_path, checkpoint=True,
                                study=study)
        assert results == [i * 10 + i for i in range(6)]
        assert rt.resilience.counts().get(rsl.LINEAGE_RECOVERY, 0) == 0
        assert sum(PRODUCE_CALLS.values()) == 6


class TestGraphInvalidate:
    def _chain(self):
        g = TaskGraph()
        d = make_def()
        a, b, c = invocation(d, 1), invocation(d, 2), invocation(d, 3)
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [b])
        return g, a, b, c

    def test_invalidate_done_task_reruns_and_blocks_successors(self):
        g, a, b, c = self._chain()
        g.pop_ready()
        g.mark_done(a)
        g.pop_ready()
        g.mark_done(b)
        assert c.state == TaskState.READY
        newly = g.invalidate([a])
        assert a.state == TaskState.READY and [t.task_id for t in newly] == [a.task_id]
        # b was DONE and stays DONE (its data survived); c still READY.
        assert b.state == TaskState.DONE
        assert c.state == TaskState.READY

    def test_invalidate_cascade_blocks_ready_successor(self):
        g, a, b, c = self._chain()
        g.pop_ready()
        g.mark_done(a)
        g.pop_ready()
        g.mark_done(b)
        newly = g.invalidate([a, b])
        # Only the root of the destroyed set is immediately re-ready.
        assert [t.task_id for t in newly] == [a.task_id]
        assert b.state == TaskState.SUBMITTED
        assert c.state == TaskState.SUBMITTED
        # Re-completing the chain re-readies in dependency order.
        g.pop_ready()
        g.mark_done(a)
        assert b.state == TaskState.READY
        g.pop_ready()
        g.mark_done(b)
        assert c.state == TaskState.READY

    def test_restored_done_task_never_enters_ready_set(self):
        g = TaskGraph()
        d = make_def()
        t = invocation(d, 1)
        t.state = TaskState.DONE
        g.add_task(t, [])
        assert g.pop_ready() == []
        # A dependent of a restored task is ready immediately.
        t2 = invocation(d, 2)
        g.add_task(t2, [t])
        assert [x.task_id for x in g.pop_ready()] == [t2.task_id]


class TestSpillIntegrity:
    """Checksummed spills: corruption degrades to recompute, never a crash."""

    def test_save_writes_checksum_sidecar(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k1", {"val_accuracy": 0.9})
        assert (tmp_path / "k1.sum").exists()
        assert store.verify("k1") == "ok"
        assert store.load_verified("k1") == {"val_accuracy": 0.9}

    def test_bit_flip_detected_as_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k1", list(range(100)))
        path = tmp_path / "k1.pkl"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.verify("k1") == "corrupt"
        with pytest.raises(ckpt.CheckpointCorruptError):
            store.load_verified("k1")

    def test_truncated_spill_is_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k1", list(range(100)))
        path = tmp_path / "k1.pkl"
        path.write_bytes(path.read_bytes()[: 10])
        assert store.verify("k1") == "corrupt"

    def test_missing_spill_reported(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.verify("ghost") == "missing"
        with pytest.raises(FileNotFoundError):
            store.load_verified("ghost")

    def test_legacy_sidecarless_spill_still_loads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(42))
        assert store.verify("old") == "ok"
        assert store.load_verified("old") == 42

    def test_legacy_garbage_spill_is_corrupt_not_crash(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "old.pkl").write_bytes(b"not a pickle")
        assert store.verify("old") == "corrupt"

    def test_verify_spills_counts(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("good", 1)
        store.save("bad", 2)
        (tmp_path / "bad.pkl").write_bytes(b"garbage")
        counts = store.verify_spills(["good", "bad", "gone"])
        assert counts == {"ok": 1, "corrupt": 1, "missing": 1}

    def test_corrupt_restore_degrades_to_missing_and_logs(self, tmp_path):
        j = WriteAheadJournal(tmp_path / ckpt.JOURNAL_FILE, fsync="off")
        j.open_session(cluster="c")
        j.append(ckpt.SUBMITTED, "done1")
        j.append(ckpt.STARTED, "done1", node="n0")
        j.append(ckpt.COMPLETED, "done1", stored=True)
        j.close()
        store = CheckpointStore(tmp_path / ckpt.OUTPUTS_DIR)
        store.save("done1", 42)
        path = tmp_path / ckpt.OUTPUTS_DIR / "done1.pkl"
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        log = ResilienceLog()
        rm = RecoveryManager(tmp_path, log=log)
        assert rm.restored_result("done1") is ckpt._MISSING
        assert rm.restored == 0
        events = [e for e in log.events if e.kind == rsl.DATA_CORRUPT]
        assert len(events) == 1
        assert rm.summary()["spill_integrity"]["corrupt"] == 1

    def test_resume_with_flipped_spill_reexecutes_only_that_task(self, tmp_path):
        CALLS.clear()
        rt = COMPSsRuntime(
            RuntimeConfig(checkpoint_dir=str(tmp_path))
        ).start()
        try:
            assert drive(rt) == 113
        finally:
            rt.stop()
        assert sum(CALLS.values()) == 3
        keyer = TaskKeyer()
        d = make_def("add", counting_add)
        t1 = invocation(d, 1, 2)
        keyer.key_for(t1)
        t2 = invocation(d, Future(t1, 0), 10)
        k2 = keyer.key_for(t2)
        victim = tmp_path / ckpt.OUTPUTS_DIR / f"{k2}.pkl"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        CALLS.clear()
        rt2 = COMPSsRuntime(RuntimeConfig(), resume_from=str(tmp_path)).start()
        try:
            assert drive(rt2) == 113
        finally:
            rt2.stop()
        # Same answer, and only the corrupted task's body re-ran.
        assert sum(CALLS.values()) == 1
        assert CALLS[("add", 3, 10)] == 1


class TestAccessInvalidation:
    def test_invalidate_and_revalidate_by_writer(self):
        from repro.runtime.access_processor import AccessProcessor

        ap = AccessProcessor()
        d = make_def()
        producer = invocation(d, 1)
        fut = Future(producer, 0)
        label = ap.register_output_future(fut)
        assert ap.versions_written_by(producer)[0].label == label
        labels = ap.invalidate_versions_written_by([producer])
        assert labels == [label]
        assert ap.invalidated_labels() == [label]
        # Idempotent: already-invalid versions are not re-reported.
        assert ap.invalidate_versions_written_by([producer]) == []
        ap.revalidate_versions_written_by(producer)
        assert ap.invalidated_labels() == []

    def test_invalidated_labels_sort_by_data_id_then_version(self):
        # Sorted as strings, d10v1 would come before d2v1.
        from repro.pycompss_api.parameter import INOUT
        from repro.runtime.access_processor import AccessProcessor

        ap = AccessProcessor()
        d = make_def()
        obj = []
        writers = []
        for i in range(11):
            t = invocation(d, i)
            ap.register_output_future(Future(t, 0))
            writers.append(t)
        for _ in range(9):
            t = invocation(d, obj)
            ap.process_access(t, obj, INOUT)
            writers.append(t)
        ap.invalidate_versions_written_by(reversed(writers))
        assert ap.invalidated_labels() == (
            [f"d{i}v1" for i in range(1, 12)]
            + [f"d12v{v}" for v in range(2, 11)]
        )


# ----------------------------------------------------------------------
# Multi-tenant study sessions (service mode)
# ----------------------------------------------------------------------
class TestStudySessionNamespacing:
    def test_empty_namespace_keeps_legacy_keys_byte_identical(self):
        d = make_def()
        t = invocation(d, {"lr": 0.1})
        assert TaskKeyer().key_for(t) == TaskKeyer(namespace="").key_for(t)

    def test_namespaces_produce_disjoint_keys(self):
        d = make_def()

        def keys_for(namespace):
            # Fresh invocations each time: the keyer memoises the key on
            # the invocation, exactly like the runtime's one-keyer-per-
            # study wiring.
            keyer = (
                TaskKeyer(namespace=namespace)
                if namespace is not None else TaskKeyer()
            )
            return {
                keyer.key_for(invocation(d, {"lr": lr}))
                for lr in (0.1, 0.2, 0.3)
            }

        keys_a = keys_for("studyA")
        keys_b = keys_for("studyB")
        keys_bare = keys_for(None)
        assert not keys_a & keys_b
        assert not keys_a & keys_bare
        assert len(keys_a) == len(keys_b) == 3

    def test_open_study_builds_namespaced_session(self, tmp_path):
        rt = COMPSsRuntime(RuntimeConfig()).start()
        try:
            session = rt.open_study("s1", checkpoint_dir=tmp_path / "s1")
            assert session.keyer.namespace == "s1"
            assert session.recovery is None  # fresh: nothing to resume
            assert (tmp_path / "s1" / ckpt.JOURNAL_FILE).exists()
            with pytest.raises(ValueError, match="already open"):
                rt.open_study("s1", checkpoint_dir=tmp_path / "s1")
            rt.close_study("s1")
            # Reopening over an existing journal auto-attaches recovery.
            session2 = rt.open_study("s1", checkpoint_dir=tmp_path / "s1")
            assert session2.recovery is not None
        finally:
            rt.stop()

    def test_concurrent_sibling_journals_never_interleave(self, tmp_path):
        """Two studies journaling from parallel threads stay disjoint:
        each journal holds only its own namespaced keys, all records
        intact (no torn/interleaved lines), and no key appears in both.
        """
        import threading

        rt = COMPSsRuntime(RuntimeConfig()).start()
        sessions = {
            sid: rt.open_study(sid, checkpoint_dir=tmp_path / sid)
            for sid in ("alpha", "beta")
        }
        d = make_def()
        errors = []

        def journal_study(sid):
            try:
                session = sessions[sid]
                for i in range(200):
                    task = invocation(d, {"trial": i})
                    key = session.keyer.key_for(task)
                    session.journal.append(
                        ckpt.SUBMITTED, key=key, task=task.label
                    )
                    session.journal.append(ckpt.COMPLETED, key=key)
            except Exception as exc:  # pragma: no cover - thread body
                errors.append(exc)

        threads = [
            threading.Thread(target=journal_study, args=(sid,))
            for sid in sessions
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rt.close_study("alpha")
        rt.close_study("beta")
        rt.stop()
        assert not errors

        keys = {}
        for sid in ("alpha", "beta"):
            path = tmp_path / sid / ckpt.JOURNAL_FILE
            records = [
                json.loads(line)
                for line in path.read_text().splitlines()
            ]
            # Every line parses (no interleaved/torn writes) and the
            # sequence numbers are the journal's own, gap-free.
            data = [r for r in records if r["rec"] != ckpt.SESSION]
            assert [r["seq"] for r in records] == list(
                range(1, len(records) + 1)
            )
            assert len(data) == 400
            keys[sid] = {r["key"] for r in data}
        assert not keys["alpha"] & keys["beta"]

    def test_session_keys_survive_for_exactly_once_replay(self, tmp_path):
        """A study journaled under a namespace replays under the same
        namespace: completed keys are recognised, foreign keys are not."""
        rt = COMPSsRuntime(RuntimeConfig()).start()
        d = make_def()
        task = invocation(d, {"lr": 0.5})
        try:
            session = rt.open_study("replayed", checkpoint_dir=tmp_path)
            key = session.keyer.key_for(task)
            session.journal.append(ckpt.SUBMITTED, key=key, task=task.label)
            session.journal.append(ckpt.COMPLETED, key=key)
            rt.close_study("replayed")
        finally:
            rt.stop()
        records, truncated = WriteAheadJournal.replay(
            tmp_path / ckpt.JOURNAL_FILE
        )
        assert not truncated
        completed = {
            r["key"] for r in records if r["rec"] == ckpt.COMPLETED
        }
        assert completed == {key}
        foreign = invocation(d, {"lr": 0.5})
        assert TaskKeyer(namespace="other").key_for(foreign) not in completed
