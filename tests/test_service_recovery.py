"""Whole-daemon crash recovery: SIGKILL a live ``repro serve`` daemon
mid-soak, restart it, and prove every tenant's study resumes
exactly-once from its namespaced journal."""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.service import ServiceClient, StudyRequest
from repro.service import protocol as proto

REPO = Path(__file__).resolve().parents[1]
SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [5, 10, 20]}


def serve_cmd(root, *extra):
    return [sys.executable, "-m", "repro.cli", "serve", str(root),
            "--heartbeat", "0.2", *extra]


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return env


def wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


def has_journaled_work(study_dir):
    """True once the study's journal holds a completed task record.

    A study's state turns 'running' before it opens its journal and
    submits its first trial, so 'running' alone does not mean there is
    prior work for a restart to restore.  The journal is read while it
    is being appended to: a torn last line is not a record yet.
    """
    journal = study_dir / proto.CHECKPOINT_DIR / "journal.jsonl"
    try:
        text = journal.read_text(encoding="utf-8")
    except OSError:
        return False
    return any(
        json.loads(line).get("rec") == "completed"
        for line in text.splitlines(keepends=True)
        if line.endswith("\n")
    )


def journal_sessions_and_keys(study_dir):
    """(sessions, executed-key counts, restored count) for one journal."""
    journal = study_dir / proto.CHECKPOINT_DIR / "journal.jsonl"
    sessions, executed, restored = [], Counter(), 0
    for line in journal.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec.get("rec") == "session":
            sessions.append(rec)
        elif rec.get("rec") == "completed":
            if rec.get("restored"):
                restored += 1
            else:
                executed[rec["key"]] += 1
    return sessions, executed, restored


@pytest.mark.slow
def test_sigkill_daemon_mid_soak_resumes_exactly_once(tmp_path):
    root = tmp_path / "svc"
    client = ServiceClient(root, poll_s=0.05)

    daemon = subprocess.Popen(
        serve_cmd(root), env=serve_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        wait_for(
            lambda: (proto.read_json(root / proto.DAEMON_FILE) or {})
            .get("status") == "running",
            30, "daemon startup",
        )
        # Eight tiny studies from three tenants.  Studies sharing a seed
        # sample identical trials, so their results must match exactly —
        # whether a study resumed across the crash or ran fresh.
        for i in range(8):
            client.submit(
                StudyRequest(
                    study_id=f"soak{i}",
                    tenant=f"tenant{i % 3}",
                    space=SPACE,
                    algorithm="random",
                    algorithm_kwargs={"n_trials": 40, "seed": i % 4},
                    objective="slow_mock",
                ),
                timeout_s=30,
            )

        # SIGKILL only once studies are genuinely mid-flight: at least two
        # running, and every running study has journaled completed work.
        def mid_flight():
            study_dirs = [root / proto.STUDIES_DIR / f"soak{i}" for i in range(8)]
            running = [
                d for d in study_dirs
                if (proto.read_json(d / proto.STATE_FILE) or {})
                .get("status") == proto.RUNNING
            ]
            return len(running) >= 2 and all(
                has_journaled_work(study_dir) for study_dir in running
            )

        wait_for(mid_flight, 60, "studies running")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=10)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)

    interrupted = client.service_status()["studies"]
    assert interrupted.get(proto.RUNNING, 0) >= 2, interrupted

    # Restart: one deterministic pass to completion.
    restart = subprocess.run(
        serve_cmd(root, "--once", "--max-wait", "300"),
        env=serve_env(), timeout=360,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    assert restart.returncode == 0, restart.stdout.decode()

    # Every tenant's study completed, in the second daemon generation.
    by_seed = {}
    for i in range(8):
        state = client.status(f"soak{i}")
        assert state["status"] == proto.COMPLETED, state
        assert state["generation"] == 2
        assert state["completed_trials"] == 40
        result = client.result(f"soak{i}")
        fingerprint = (
            tuple(sorted(state["best"]["config"].items())),
            state["best"]["val_accuracy"],
        )
        by_seed.setdefault(i % 4, []).append(fingerprint)
    for seed, fingerprints in by_seed.items():
        assert len(set(fingerprints)) == 1, (
            f"studies with seed {seed} diverged across the crash: "
            f"{fingerprints}"
        )

    # Exactly-once: across both generations no task key was executed
    # twice, and the studies that were mid-flight at the kill resumed
    # (second journal session marked resumed, prior work restored).
    resumed_studies = 0
    for i in range(8):
        study_dir = root / proto.STUDIES_DIR / f"soak{i}"
        sessions, executed, restored = journal_sessions_and_keys(study_dir)
        duplicates = {k: c for k, c in executed.items() if c > 1}
        assert not duplicates, (
            f"soak{i} re-executed completed tasks: {duplicates}"
        )
        if len(sessions) > 1:
            assert sessions[-1]["resumed"] is True
            assert restored > 0
            resumed_studies += 1
    assert resumed_studies >= 2, "expected the killed studies to resume"


@pytest.mark.slow
def test_graceful_shutdown_requeues_stragglers(tmp_path):
    """SIGTERM under a tight drain deadline re-queues running studies
    on disk; the next daemon life finishes them exactly-once."""
    root = tmp_path / "svc"
    client = ServiceClient(root, poll_s=0.05)

    daemon = subprocess.Popen(
        serve_cmd(root, "--drain-deadline", "0.2"), env=serve_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        wait_for(
            lambda: (proto.read_json(root / proto.DAEMON_FILE) or {})
            .get("status") == "running",
            30, "daemon startup",
        )
        client.submit(
            StudyRequest(
                study_id="drainee", space=SPACE, algorithm="random",
                algorithm_kwargs={"n_trials": 60, "seed": 7},
                objective="slow_mock",
            ),
            timeout_s=30,
        )
        wait_for(
            lambda: client.status("drainee").get("status") == proto.RUNNING
            and has_journaled_work(root / proto.STUDIES_DIR / "drainee"),
            60, "study running with journaled work",
        )
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)

    # The drain deadline was far too short for 60 slow trials: the study
    # must be parked back in the queue, not failed.
    assert client.status("drainee")["status"] == proto.QUEUED
    assert "re-queued" in client.status("drainee")["detail"]

    restart = subprocess.run(
        serve_cmd(root, "--once", "--max-wait", "300"),
        env=serve_env(), timeout=360,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    assert restart.returncode == 0, restart.stdout.decode()
    state = client.status("drainee")
    assert state["status"] == proto.COMPLETED
    assert state["completed_trials"] == 60

    sessions, executed, restored = journal_sessions_and_keys(
        root / proto.STUDIES_DIR / "drainee"
    )
    assert not {k: c for k, c in executed.items() if c > 1}
    assert len(sessions) == 2 and sessions[-1]["resumed"] is True
    assert restored > 0
