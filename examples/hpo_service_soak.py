"""Multi-tenant HPO service soak: poison isolation + daemon crash recovery.

``repro serve`` runs many tenant studies over one shared runtime.  This
example soaks the two robustness guarantees in-process, in two acts:

1. **Fault isolation** — three tenants share the daemon; one submits a
   *poison* study whose objective fails every trial.  The poison study
   burns through its failed-trial budget and is terminated alone
   (``study_failed`` in the resilience log) while its neighbours finish
   their full grids untouched.
2. **Crash recovery** — a second daemon life.  Studies are interrupted
   mid-flight by a drain with a deliberately tiny deadline (the
   in-process stand-in for a daemon death; the real ``SIGKILL`` version
   lives in ``tests/test_service_recovery.py``), re-queued on disk, and
   resumed by a fresh daemon *generation* over the same service root.
   The per-study write-ahead journals prove exactly-once execution:
   completed trials are restored, not re-run.

Run:  python examples/hpo_service_soak.py
"""

import json
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.runtime.config import RuntimeConfig
from repro.service import (
    AdmissionConfig,
    HPOService,
    ServiceClient,
    StudyRequest,
)
from repro.simcluster import local_machine

SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [5, 10, 20]}


def make_service(root: Path) -> HPOService:
    return HPOService(
        root,
        runtime_config=RuntimeConfig(cluster=local_machine(4)),
        admission=AdmissionConfig(max_concurrent_studies=4),
        drain_deadline_s=0.2,  # act 2: give up on stragglers fast
        heartbeat_s=0.2,
    )


def journal_stats(root: Path, study_id: str):
    """(sessions, restored tasks, duplicate executions) from one journal."""
    journal = root / "studies" / study_id / "checkpoint" / "journal.jsonl"
    sessions, restored, executed = 0, 0, Counter()
    for line in journal.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec.get("rec") == "session":
            sessions += 1
        elif rec.get("rec") == "completed":
            if rec.get("restored"):
                restored += 1
            else:
                executed[rec["key"]] += 1
    duplicates = sum(n - 1 for n in executed.values() if n > 1)
    return sessions, restored, duplicates


def has_journaled_work(root: Path, study_id: str) -> bool:
    """True once a study's journal holds a completed task record.

    Read while worker threads append to it, so a torn last line is
    skipped rather than parsed.
    """
    journal = root / "studies" / study_id / "checkpoint" / "journal.jsonl"
    try:
        text = journal.read_text(encoding="utf-8")
    except OSError:
        return False
    return any(
        json.loads(line).get("rec") == "completed"
        for line in text.splitlines(keepends=True)
        if line.endswith("\n")
    )


def act_1_poison_isolation(root: Path) -> None:
    print("=== Act 1: a poisoned tenant is terminated alone ===")
    service = make_service(root).start()
    client = ServiceClient(root, poll_s=0.01)
    try:
        for tenant, study_id, objective in [
            ("alice", "alice-grid", "fast_mock"),
            ("bob", "bob-grid", "fast_mock"),
            ("mallory", "poison", "poison"),
        ]:
            client.submit(
                StudyRequest(
                    study_id=study_id, tenant=tenant, space=SPACE,
                    objective=objective, max_failed_trials=2,
                ),
                wait_admission=False,
            )
        service.run_until_idle(poll_s=0.01, max_wait_s=120)

        poisoned = client.status("poison")
        assert poisoned["status"] == "failed", poisoned
        print(f"poison study: {poisoned['status']} — {poisoned['detail']}")
        for study_id in ("alice-grid", "bob-grid"):
            state = client.status(study_id)
            assert state["status"] == "completed", state
            assert state["completed_trials"] == 9
            best = state["best"]
            print(
                f"{study_id}: completed 9/9 trials, best "
                f"val_acc={best['val_accuracy']:.3f} {best['config']}"
            )
        events = service.runtime.analysis().service()
        assert events["studies_failed"] == 1
        print(f"resilience log: {events['studies_failed']} study_failed "
              "event, neighbours untouched\n")
    finally:
        service.shutdown()


def act_2_crash_recovery(root: Path) -> None:
    print("=== Act 2: daemon dies mid-soak, next generation resumes ===")
    first_life = make_service(root).start()
    client = ServiceClient(root, poll_s=0.01)
    study_ids = [f"soak{i}" for i in range(3)]
    for i, study_id in enumerate(study_ids):
        client.submit(
            StudyRequest(
                study_id=study_id, tenant=f"tenant{i}", space=SPACE,
                algorithm="random",
                algorithm_kwargs={"n_trials": 30, "seed": i},
                objective="slow_mock",
            ),
            wait_admission=False,
        )
    # Pump the daemon until the studies are genuinely mid-flight: running,
    # with completed work in their journals for the next life to restore ...
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        first_life.step()
        running = sum(
            1 for s in study_ids
            if client.status(s)["status"] == "running"
            and has_journaled_work(root, s)
        )
        if running >= 2:
            break
        time.sleep(0.02)
    # ... then the daemon "dies": the 0.2 s drain deadline expires long
    # before 30 slow trials finish, so the studies are re-queued on disk
    # exactly as a SIGKILL would leave them (journals intact).
    first_life.shutdown(drain=True)
    interrupted = [
        s for s in study_ids if client.status(s)["status"] == "queued"
    ]
    print(f"daemon life 1 over: {len(interrupted)} studies re-queued "
          f"({', '.join(interrupted)})")
    assert interrupted, "expected at least one straggler to re-queue"

    second_life = make_service(root).start()
    try:
        second_life.run_until_idle(poll_s=0.01, max_wait_s=300)
        for study_id in study_ids:
            state = client.status(study_id)
            assert state["status"] == "completed", state
            assert state["completed_trials"] == 30
            sessions, restored, duplicates = journal_stats(root, study_id)
            assert duplicates == 0, f"{study_id}: a task ran twice!"
            print(
                f"{study_id}: completed 30/30 in generation "
                f"{state['generation']} — journal shows {sessions} "
                f"session(s), {restored} restored, {duplicates} duplicates"
            )
        resumed = [s for s in study_ids if journal_stats(root, s)[1] > 0]
        assert resumed, "expected restored tasks in some journal"
        print("exactly-once held across the crash: completed trials were "
              "restored from the journals, never re-executed")
    finally:
        second_life.shutdown()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        act_1_poison_isolation(Path(tmp) / "act1")
        act_2_crash_recovery(Path(tmp) / "act2")


if __name__ == "__main__":
    main()
