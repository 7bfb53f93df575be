"""Service-layer preemption: the memory watchdog suspends running
studies warm before shedding queued ones, suspend-grace escalation parks
uncooperative studies without failing them, drain deadlines racing an
in-flight suspend always leave a resumable state, and a torn suspend
spill degrades to a cold (but correct) restart — never a wrong restore.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.hpo.objective import fast_mock_objective
from repro.runtime.config import RuntimeConfig
from repro.runtime.preemption import clear_local_flags
from repro.runtime.task_definition import TaskState
from repro.service import (
    AdmissionConfig,
    HPOService,
    ServiceClient,
    StudyRequest,
)
from repro.service import protocol as proto
from repro.simcluster.machines import local_machine

#: One slow trial per study (~0.8 s): long enough for a suspend to land
#: mid-flight, short enough for the suite.
SLOW_SPACE = {
    "optimizer": ["Adam"],
    "num_epochs": [40],
    "epoch_sleep_s": [0.02],
}


@pytest.fixture(autouse=True)
def _clean_flags():
    clear_local_flags()
    yield
    clear_local_flags()


def expected_accuracy():
    """What a SLOW_SPACE trial deterministically reports: the last point
    of the mock's accuracy curve (preemptible_mock walks the curve)."""
    full = fast_mock_objective({"optimizer": "Adam", "num_epochs": 40})
    return full["history"]["val_accuracy"][-1]


def request(study_id, **kw):
    kw.setdefault("space", SLOW_SPACE)
    kw.setdefault("objective", "preemptible_mock")
    return StudyRequest(study_id=study_id, **kw)


def wait_for(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class Pump:
    """Drive ``service.step()`` from a background thread."""

    def __init__(self, service):
        self.service = service
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.service.step()
            time.sleep(0.01)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


def pressured_service(tmp_path, rss, **runtime_kw):
    return HPOService(
        tmp_path / "svc",
        runtime_config=RuntimeConfig(cluster=local_machine(4), **runtime_kw),
        admission=AdmissionConfig(rss_limit_mb=100.0,
                                  max_concurrent_studies=2),
        rss_fn=lambda: rss["mb"],
        heartbeat_s=0.05,
    )


class TestSuspendNotShed:
    def test_watchdog_suspends_lowest_priority_running_study_warm(
        self, tmp_path
    ):
        """Under pressure the low-priority running study parks as
        ``suspended`` (distinct from ``shed``), is listed separately by
        service_status, and completes once pressure clears."""
        rss = {"mb": 0.0}
        service = pressured_service(tmp_path, rss).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("keeper", priority=5).to_payload())
            service._admit(request("parkme", priority=0).to_payload())
            with Pump(service):
                wait_for(
                    lambda: all(
                        client.status(s)["status"] == proto.RUNNING
                        for s in ("keeper", "parkme")
                    ),
                    what="both studies running",
                )
                # The state file flips to running before the first trial
                # is in flight; apply pressure only once both trials are
                # registered preemptible AND placed on workers, so the
                # warm spill path (not just the study-level park) is
                # what we exercise — the watchdog pauses the victim's
                # dispatch lane, and a queued-but-unplaced task in a
                # paused lane cannot cooperate before grace escalation.
                wait_for(
                    lambda: service.runtime.preemption.stats()["registered"]
                    >= 2,
                    what="both trials registered preemptible",
                )
                def placed(sid):
                    invs = [
                        inv
                        for inv in (
                            service.runtime.preemption.registered().values()
                        )
                        if getattr(inv, "study", "") == sid
                    ]
                    return bool(invs) and all(
                        inv.state == TaskState.RUNNING for inv in invs
                    )

                wait_for(
                    lambda: placed("keeper") and placed("parkme"),
                    what="both trials placed on workers",
                )
                rss["mb"] = 10_000.0
                wait_for(
                    lambda: client.status("parkme")["status"]
                    == proto.SUSPENDED,
                    what="parkme suspended",
                )
                status = client.service_status()
                assert status["suspended"] == ["parkme"]
                # Suspension, not shedding: nothing was discarded.
                events = service.runtime.analysis().service()
                assert events["studies_suspended"] >= 1
                assert events["loads_shed"] == 0
                rss["mb"] = 0.0
                wait_for(
                    lambda: all(
                        client.status(s)["status"] == proto.COMPLETED
                        for s in ("keeper", "parkme")
                    ),
                    what="both studies completed",
                )
            events = service.runtime.analysis().service()
            preempt = service.runtime.analysis().preemption()
        finally:
            service.shutdown()

        assert events["studies_completed"] == 2
        assert events["loads_shed"] == 0
        # The trial-level machinery actually engaged: flags were raised
        # and warm spills landed before the study parked.
        assert preempt["trials_suspended"] >= 1
        assert preempt["suspend_spills"] >= 1
        assert preempt["studies_suspended"] >= 1
        assert client.service_status()["suspended"] == []
        # Both results are the deterministic mock answer — no work was
        # corrupted by the round trip through suspension.
        expected = expected_accuracy()
        for sid in ("keeper", "parkme"):
            result = client.result(sid)
            accs = [
                t["result"]["val_accuracy"] for t in result["trials"]
                if t["status"] == "completed"
            ]
            assert accs == [expected]

    def test_suspend_grace_escalates_to_warm_park(self, tmp_path):
        """A study whose trials never reach a checkpoint epoch cannot
        cooperate; past ``suspend_grace_s`` its tasks are abandoned and
        the study parks suspended — and still completes later."""
        rss = {"mb": 0.0}
        # Checkpoint cadence far beyond num_epochs: the flag is ignored.
        service = pressured_service(
            tmp_path, rss,
            preempt_checkpoint_epochs=1000, suspend_grace_s=0.2,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("keeper", priority=5).to_payload())
            service._admit(request("stubborn", priority=0).to_payload())
            with Pump(service):
                wait_for(
                    lambda: all(
                        client.status(s)["status"] == proto.RUNNING
                        for s in ("keeper", "stubborn")
                    ),
                    what="both studies running",
                )
                rss["mb"] = 10_000.0
                wait_for(
                    lambda: client.status("stubborn")["status"]
                    == proto.SUSPENDED,
                    what="grace escalation",
                )
                assert "grace" in client.status("stubborn")["detail"]
                rss["mb"] = 0.0
                wait_for(
                    lambda: client.status("stubborn")["status"]
                    == proto.COMPLETED,
                    what="stubborn resumed and completed",
                )
            events = service.runtime.analysis().service()
            assert events["studies_suspended"] >= 1
            assert events["loads_shed"] == 0
        finally:
            service.shutdown()


class TestDrainRacesSuspend:
    def test_drain_deadline_racing_suspend_leaves_resumable_state(
        self, tmp_path
    ):
        """Shutdown's drain deadline and an in-flight suspend can race;
        whichever wins, the study lands in a resumable state and the
        next daemon life finishes it exactly-once."""
        service = HPOService(
            tmp_path / "svc",
            runtime_config=RuntimeConfig(cluster=local_machine(4)),
            drain_deadline_s=0.3,
            heartbeat_s=0.05,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        service._admit(request("racer").to_payload())
        with Pump(service):
            wait_for(
                lambda: client.status("racer")["status"] == proto.RUNNING,
                what="racer running",
            )
            time.sleep(0.1)  # let the slow trial get some epochs in
        # Flag the suspend and drain immediately: the spill may or may
        # not land before the deadline abandons the tasks.
        service.runtime.preemption.suspend_study("racer", reason="notice")
        service.shutdown(drain=True)

        state = client.status("racer")["status"]
        assert state in proto.RESUMABLE_STATES

        second = HPOService(
            tmp_path / "svc",
            runtime_config=RuntimeConfig(cluster=local_machine(4)),
            heartbeat_s=0.05,
        ).start()
        try:
            assert second.generation == 2
            second.run_until_idle(max_wait_s=60)
        finally:
            second.shutdown()
        result = client.result("racer")
        expected = expected_accuracy()
        accs = [
            t["result"]["val_accuracy"] for t in result["trials"]
            if t["status"] == "completed"
        ]
        assert accs == [expected]


class TestTornSpill:
    def test_torn_suspend_spill_restarts_cold_never_wrong(self, tmp_path):
        """Corrupt a suspended study's spill before it resumes: the
        sidecar check rejects it, the trial restarts from epoch 0, and
        the final answer is still exactly the deterministic one."""
        rss = {"mb": 0.0}
        service = pressured_service(tmp_path, rss).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("fragile").to_payload())
            with Pump(service):
                wait_for(
                    lambda: client.status("fragile")["status"]
                    == proto.RUNNING,
                    what="fragile running",
                )
                # The flag only lands on *registered* trials; wait for
                # the submission before fanning out.
                wait_for(
                    lambda: service.runtime.preemption.stats()[
                        "registered"
                    ] >= 1,
                    what="trial registered preemptible",
                )
                # Mimic the watchdog by hand (suspend_victims never
                # parks the last running study).  The dispatch lane is
                # deliberately NOT paused: a queued-but-unplaced task in
                # a paused lane can never reach a checkpoint epoch, and
                # this test needs the cooperative warm spill, not the
                # grace escalation.
                with service._lock:
                    service._suspends.add("fragile")
                    service._suspend_deadlines["fragile"] = (
                        time.monotonic() + 30.0
                    )
                # Hold memory pressure until the spill is torn: the daemon
                # re-enqueues a suspended study as soon as pressure is
                # clear, which could resume it before it is seen parked.
                rss["mb"] = 500.0
                service.runtime.preemption.suspend_study(
                    "fragile", reason="test watchdog"
                )
                wait_for(
                    lambda: client.status("fragile")["status"]
                    == proto.SUSPENDED,
                    what="fragile suspended",
                )
                # Tear every suspend spill: garbage payload, stale sum.
                spills = [
                    p for p in service.paths.root.rglob("*.pkl")
                    if "preempt" in p.parts
                ]
                assert spills, "suspension left no spill on disk"
                for spill in spills:
                    spill.write_bytes(b"torn mid-write")
                rss["mb"] = 0.0
                wait_for(
                    lambda: client.status("fragile")["status"]
                    == proto.COMPLETED,
                    what="fragile resumed and completed",
                )
            result = client.result("fragile")
        finally:
            service.shutdown()

        trial = [t for t in result["trials"] if t["status"] == "completed"][0]
        # Cold restart, by design (the torn spill was discarded) — but
        # the answer is exactly the deterministic one, all epochs run.
        assert trial["result"]["val_accuracy"] == expected_accuracy()
        assert trial["result"]["epochs_run"] == 40


class TestServiceStatusCLI:
    def test_cli_lists_suspended_studies_separately(self, tmp_path, capsys):
        paths = proto.ServicePaths(tmp_path / "svc")
        paths.ensure_layout()
        proto.atomic_write_json(
            paths.state_file("warm1"),
            {"study_id": "warm1", "status": proto.SUSPENDED},
        )
        proto.atomic_write_json(
            paths.state_file("done1"),
            {"study_id": "done1", "status": proto.COMPLETED},
        )
        assert cli_main(["service-status", str(paths.root)]) == 0
        out = capsys.readouterr().out
        assert "suspended studies (resume when pressure clears): warm1" in out
        assert "completed: 1" in out
