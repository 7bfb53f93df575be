"""Tests for the fault policy and tracing/analysis/paraver modules."""

import pytest

from repro.runtime import resilience as rsl
from repro.runtime.fault import FaultAction, RetryPolicy, TaskFailedError
from repro.runtime.resilience import ResilienceLog
from repro.runtime.task_definition import TaskDefinition, TaskInvocation
from repro.runtime.tracing import (
    TaskRecord,
    TraceAnalysis,
    TraceRecorder,
    export_prv,
)


def make_task(name="t"):
    return TaskInvocation(
        definition=TaskDefinition(func=lambda: None, name=name), args=(), kwargs={}
    )


class TestRetryPolicy:
    def test_paper_default_two_stage(self):
        # Paper §4: same node first, then another node, then give up.
        policy = RetryPolicy()
        t = make_task()
        t.attempts = 1
        assert policy.decide(t) == FaultAction.RETRY_SAME_NODE
        t.attempts = 2
        assert policy.decide(t) == FaultAction.RESUBMIT_OTHER_NODE
        t.attempts = 3
        assert policy.decide(t) == FaultAction.GIVE_UP

    def test_max_attempts(self):
        assert RetryPolicy(1, 1).max_attempts == 3
        assert RetryPolicy(0, 0).max_attempts == 1

    def test_no_retries(self):
        policy = RetryPolicy(same_node_retries=0, resubmissions=0)
        t = make_task()
        t.attempts = 1
        assert policy.decide(t) == FaultAction.GIVE_UP

    def test_decide_without_failure_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().decide(make_task())

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(same_node_retries=-1)

    def test_task_failed_error_message(self):
        t = make_task("exp")
        t.attempts = 3
        t.failed_nodes = ["n1", "n2"]
        err = TaskFailedError(t, RuntimeError("boom"))
        assert "exp" in str(err) and "n1" in str(err) and "3" in str(err)


def record(label="t1", node="n1", cpus=(0,), start=0.0, end=10.0, **kw):
    return TaskRecord(
        task_label=label, task_name="t", node=node,
        cpu_ids=tuple(cpus), gpu_ids=kw.pop("gpus", ()),
        start=start, end=end, **kw,
    )


class TestTraceRecorder:
    def test_records_when_enabled(self):
        rec = TraceRecorder(enabled=True)
        rec.record_task(record())
        assert len(rec.records) == 1

    def test_disabled_is_noop(self):
        # Paper §5: tracing "easily turned off by a simple flag".
        rec = TraceRecorder(enabled=False)
        rec.record_task(record())
        assert not rec.records

    def test_makespan(self):
        rec = TraceRecorder()
        rec.record_task(record(start=5.0, end=15.0))
        rec.record_task(record(label="t2", start=0.0, end=10.0))
        assert rec.makespan == 15.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            record(start=10.0, end=5.0)

    def test_clear(self):
        rec = TraceRecorder()
        rec.record_task(record())
        rec.clear()
        assert rec.makespan == 0.0

    def test_filters(self):
        rec = TraceRecorder()
        rec.record_task(record(node="a"))
        rec.record_task(record(label="t2", node="b"))
        assert len(rec.records_for_node("a")) == 1


class TestTraceAnalysis:
    def build(self, records):
        rec = TraceRecorder()
        for r in records:
            rec.record_task(r)
        return TraceAnalysis(rec)

    def test_concurrency_profile(self):
        ana = self.build(
            [record(start=0, end=10), record(label="t2", cpus=(1,), start=5, end=15)]
        )
        assert ana.max_concurrency() == 2
        profile = dict(ana.concurrency_profile())
        assert profile[5.0] == 2 and profile[15.0] == 0

    def test_started_within_window(self):
        ana = self.build(
            [
                record(start=0.0, end=10),
                record(label="t2", cpus=(1,), start=0.5, end=10),
                record(label="t3", cpus=(2,), start=50.0, end=60),
            ]
        )
        assert ana.started_within(1.0) == 2

    def test_stragglers(self):
        ana = self.build(
            [record(start=0, end=10), record(label="late", cpus=(1,), start=3, end=9)]
        )
        assert [r.task_label for r in ana.stragglers()] == ["late"]

    def test_utilization_full(self):
        ana = self.build([record(start=0, end=10)])
        assert ana.utilization() == pytest.approx(1.0)

    def test_utilization_with_total_cores(self):
        ana = self.build([record(start=0, end=10)])
        assert ana.utilization(total_cores=2) == pytest.approx(0.5)

    def test_idle_nodes(self):
        ana = self.build([record(node="n2")])
        # Fig. 6a: "the first node seems empty as it is used by the worker".
        assert ana.idle_nodes(["n1", "n2", "n3"]) == ["n1", "n3"]

    def test_cores_used(self):
        ana = self.build([record(cpus=(3, 4), gpus=(0,))])
        assert ("n1", "cpu", 3) in ana.cores_used()
        assert ("n1", "gpu", 0) in ana.cores_used()

    def test_gantt_renders_rows(self):
        out = self.build(
            [record(start=0, end=10), record(label="t2", cpus=(1,), start=5, end=10)]
        ).gantt(width=20)
        assert "n1/cpu000" in out and "#" in out

    def test_gantt_marks_failures(self):
        out = self.build([record(success=False)]).gantt(width=10)
        assert "x" in out

    def test_empty_trace(self):
        ana = self.build([])
        assert ana.makespan == 0.0
        assert ana.gantt() == "(empty trace)"
        assert ana.max_concurrency() == 0

    def test_summary(self):
        out = self.build([record()]).summary()
        assert "makespan" in out and "tasks: 1" in out

    #: Every resilience roll-up: its keys in order, each with the event
    #: kind it counts.
    ROLLUPS = {
        "worker_churn": [
            ("crashes", rsl.WORKER_CRASH),
            ("hard_kills", rsl.WORKER_KILLED),
            ("recycles", rsl.WORKER_RECYCLED),
            ("poisoned_tasks", rsl.POISON_TASK),
        ],
        "data_integrity": [
            ("corruptions", rsl.DATA_CORRUPT),
            ("replica_repairs", rsl.REPLICA_REPAIR),
            ("recomputes", rsl.INTEGRITY_RECOMPUTE),
            ("transfer_retries", rsl.TRANSFER_RETRY),
            ("transfer_failures", rsl.TRANSFER_FAILED),
        ],
        "churn": [
            ("preemption_notices", rsl.PREEMPTION_NOTICE),
            ("drains_started", rsl.NODE_DRAINING),
            ("drains_completed", rsl.DRAIN_COMPLETE),
            ("drain_deadline_escalations", rsl.DRAIN_DEADLINE),
            ("nodes_lost", rsl.NODE_LOST),
            ("nodes_rejoined", rsl.NODE_REJOINED),
            ("classes_starved", rsl.CLASS_STARVED),
            ("upstream_cancellations", rsl.UPSTREAM_CANCELLED),
        ],
        "service": [
            ("studies_admitted", rsl.STUDY_ADMITTED),
            ("studies_completed", rsl.STUDY_COMPLETED),
            ("studies_failed", rsl.STUDY_FAILED),
            ("studies_cancelled", rsl.STUDY_CANCELLED),
            ("studies_suspended", rsl.STUDY_SUSPENDED),
            ("loads_shed", rsl.LOAD_SHED),
        ],
        "preemption": [
            ("trials_suspended", rsl.TRIAL_SUSPENDED),
            ("suspend_spills", rsl.SUSPEND_SPILL),
            ("trials_resumed", rsl.TRIAL_RESUMED),
            ("rung_promotions", rsl.RUNG_PROMOTION),
            ("studies_suspended", rsl.STUDY_SUSPENDED),
        ],
        "reuse": [
            ("cache_hits", rsl.CACHE_HIT),
            ("cache_misses", rsl.CACHE_MISS),
            ("joined", rsl.CACHE_JOIN),
            ("cache_corrupt", rsl.CACHE_CORRUPT),
            ("cache_evictions", rsl.CACHE_EVICT),
        ],
    }

    def test_resilience_rollups_are_pinned(self):
        def rollups(times):
            log = ResilienceLog()
            for kind in rsl.EVENT_KINDS:
                for _ in range(times(kind)):
                    log.record(0.0, kind)
            ana = TraceAnalysis(TraceRecorder(), log)
            return {name: list(getattr(ana, name)().items())
                    for name in self.ROLLUPS}

        # One event of every kind: keys and key order, every count 1.
        assert rollups(lambda kind: 1) == {
            name: [(key, 1) for key, _ in rows]
            for name, rows in self.ROLLUPS.items()
        }
        # A distinct count per kind: each key counts its own kind.
        weight = {kind: i + 1 for i, kind in enumerate(rsl.EVENT_KINDS)}
        assert rollups(weight.get) == {
            name: [(key, weight[kind]) for key, kind in rows]
            for name, rows in self.ROLLUPS.items()
        }


class TestParaverExport:
    def test_export_roundtrip(self, tmp_path):
        rec = TraceRecorder()
        rec.record_task(record(start=0.0, end=2.0))
        rec.record_task(record(label="g", gpus=(1,), cpus=(), start=1.0, end=3.0))
        path = export_prv(rec, tmp_path / "trace.prv")
        text = path.read_text()
        assert text.startswith("#Paraver")
        assert "t1" in text
        assert "gpu2" in text
        assert "# node 1 = n1" in text

    def test_failed_state_code(self, tmp_path):
        rec = TraceRecorder()
        rec.record_task(record(success=False))
        text = export_prv(rec, tmp_path / "t.prv").read_text()
        assert text.splitlines()[1].endswith(":5")

    def test_times_in_microseconds(self, tmp_path):
        rec = TraceRecorder()
        rec.record_task(record(start=1.0, end=2.0))
        text = export_prv(rec, tmp_path / "t.prv").read_text()
        assert ":1000000:2000000:" in text
