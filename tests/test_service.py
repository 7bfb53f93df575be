"""Multi-tenant service tests: admission control, fault isolation,
cancellation, load shedding, the file-protocol client, and the chaos
acceptance run (a poisoned study must not perturb its neighbours)."""

import threading
import time

import pytest

from repro.hpo import PyCOMPSsRunner, fast_mock_objective
from repro.hpo.space import SearchSpace
from repro.runtime.config import RuntimeConfig
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    HPOService,
    ServiceClient,
    StudyRequest,
)
from repro.service import protocol as proto
from repro.service.errors import (
    ClientTimeoutError,
    QueueFullError,
    ServiceOverloadedError,
    StudyConflictError,
    StudyNotFoundError,
    StudySuspendedError,
    TenantQuotaError,
    error_for_code,
)
from repro.simcluster.machines import local_machine

SPACE = {"optimizer": ["SGD", "Adam", "RMSprop"], "num_epochs": [5, 10, 20]}


def make_service(tmp_path, **admission):
    return HPOService(
        tmp_path / "svc",
        runtime_config=RuntimeConfig(cluster=local_machine(4)),
        admission=AdmissionConfig(**admission) if admission else None,
        heartbeat_s=0.05,
    )


def request(study_id, objective="fast_mock", **kw):
    kw.setdefault("space", SPACE)
    return StudyRequest(study_id=study_id, objective=objective, **kw)


def solo_study(study_id, objective=fast_mock_objective, algorithm="grid"):
    """The same study run alone on a fresh runtime (the baseline)."""
    runner = PyCOMPSsRunner(
        algorithm,
        space=SearchSpace.from_dict(SPACE),
        objective=objective,
        study_name=study_id,
        runtime_config=RuntimeConfig(cluster=local_machine(4)),
    )
    return runner.run()


def accuracies(study_or_state):
    if isinstance(study_or_state, dict):  # result.json payload
        return {
            t["trial_id"]: t["result"]["val_accuracy"]
            for t in study_or_state["trials"]
            if t["status"] == "completed"
        }
    return {
        t.trial_id: t.val_accuracy for t in study_or_state.completed()
    }


# ----------------------------------------------------------------------
# Admission controller (pure policy, no daemon)
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_queue_full(self):
        c = AdmissionController(AdmissionConfig(max_queued_studies=2))
        c.check_admission("a", ["a"])
        with pytest.raises(QueueFullError):
            c.check_admission("b", ["a", "a"])

    def test_tenant_queue_quota_isolated_per_tenant(self):
        c = AdmissionController(AdmissionConfig(max_queued_per_tenant=2))
        with pytest.raises(TenantQuotaError):
            c.check_admission("a", ["a", "a", "b"])
        # The other tenant is unaffected by a's quota.
        c.check_admission("b", ["a", "a", "b"])

    def test_overload_rejects_before_queue_rules(self):
        rss = {"mb": 10.0}
        c = AdmissionController(
            AdmissionConfig(rss_limit_mb=100.0), rss_fn=lambda: rss["mb"]
        )
        c.check_admission("a", [])
        rss["mb"] = 500.0
        with pytest.raises(ServiceOverloadedError):
            c.check_admission("a", [])
        assert c.overloaded()

    def test_pick_next_priority_band_then_fifo(self):
        class Q:
            def __init__(self, tenant, priority):
                self.tenant, self.priority = tenant, priority

        c = AdmissionController(AdmissionConfig(
            max_concurrent_studies=3, max_studies_per_tenant=1,
        ))
        queued = [Q("c", 0), Q("b", 5), Q("a", 5), Q("a", 5)]
        picks = c.pick_next(queued, [], 0)
        # High-priority band first, FIFO within it; the second 'a' study
        # is skipped (tenant at its running quota), so the low-priority
        # 'c' study takes the last slot.
        assert picks == [1, 2, 0]

    def test_pick_next_respects_free_slots(self):
        class Q:
            tenant, priority = "a", 0

        c = AdmissionController(AdmissionConfig(
            max_concurrent_studies=2, max_studies_per_tenant=8,
        ))
        assert c.pick_next([Q(), Q(), Q()], ["b"], 1) == [0]
        assert c.pick_next([Q()], ["b", "b"], 2) == []

    def test_shed_only_under_pressure_lowest_priority_first(self):
        class Q:
            def __init__(self, priority):
                self.tenant, self.priority = "a", priority

        rss = {"mb": 0.0}
        c = AdmissionController(
            AdmissionConfig(rss_limit_mb=100.0), rss_fn=lambda: rss["mb"]
        )
        queued = [Q(5), Q(0), Q(0)]
        assert c.shed_victims(queued) == []
        rss["mb"] = 1000.0
        # Everything queued sheds, lowest priority (and newest) first.
        assert c.shed_victims(queued) == [2, 1, 0]

    def test_config_validation_names_knob(self):
        with pytest.raises(ValueError, match="max_queued_studies"):
            AdmissionConfig(max_queued_studies=0)

    def test_error_codes_round_trip(self):
        for cls in (QueueFullError, TenantQuotaError,
                    ServiceOverloadedError, StudyConflictError,
                    StudySuspendedError):
            err = error_for_code(cls.code, "msg")
            assert isinstance(err, cls)
        assert error_for_code("no_such_code", "msg").code == "service_error"


# ----------------------------------------------------------------------
# Daemon end-to-end (in-process)
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_single_study_matches_solo_run(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(request("s1"), wait_admission=False)
            service.run_until_idle(max_wait_s=60)
        finally:
            service.shutdown()
        state = client.status("s1")
        assert state["status"] == proto.COMPLETED
        solo = solo_study("s1")
        assert state["best"]["config"] == solo.best_trial().config
        assert accuracies(client.result("s1")) == accuracies(solo)

    def test_daemon_drops_budget_kwargs_the_algorithm_does_not_take(
        self, tmp_path
    ):
        # ``repro-hpo submit`` sends n_trials and seed for every
        # algorithm; grid search takes neither.
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(
                request("g1", algorithm_kwargs={"n_trials": 20, "seed": 0}),
                wait_admission=False,
            )
            service.run_until_idle(max_wait_s=60)
        finally:
            service.shutdown()
        assert client.status("g1")["status"] == proto.COMPLETED
        assert accuracies(client.result("g1")) == accuracies(solo_study("g1"))

    def test_chaos_poison_study_is_isolated(self, tmp_path):
        """The acceptance chaos test: three tenants, one poisoned.

        The poisoned study must fail alone (study_failed event) while
        the clean studies' results are byte-identical to solo runs.
        """
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(
                request("poisonA", objective="poison", tenant="a",
                        max_failed_trials=0),
                wait_admission=False,
            )
            client.submit(request("cleanB", tenant="b"),
                          wait_admission=False)
            client.submit(request("cleanC", tenant="c"),
                          wait_admission=False)
            service.run_until_idle(max_wait_s=120)
            events = service.runtime.analysis().service()
        finally:
            service.shutdown()

        assert client.status("poisonA")["status"] == proto.FAILED
        assert "failed-trial budget" in client.status("poisonA")["detail"]
        assert events["studies_failed"] == 1
        assert events["studies_completed"] == 2

        for sid in ("cleanB", "cleanC"):
            assert client.status(sid)["status"] == proto.COMPLETED
            solo = solo_study(sid)
            assert client.status(sid)["best"]["config"] == \
                solo.best_trial().config
            # Byte-identical, not approximately equal.
            assert accuracies(client.result(sid)) == accuracies(solo)

    def test_fair_rounds_engage_only_with_concurrent_studies(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            for sid, tenant in (("m1", "a"), ("m2", "b"), ("m3", "c")):
                client.submit(request(sid, tenant=tenant),
                              wait_admission=False)
            service.run_until_idle(max_wait_s=120)
            stats = service.runtime.dispatcher.stats.snapshot()
        finally:
            service.shutdown()
        assert stats["fair_rounds"] > 0

    def test_idempotent_resubmission_is_noop(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(request("dup"), wait_admission=False)
            service.run_until_idle(max_wait_s=60)
            first = client.status("dup")
            # Same request again: accepted as a no-op, nothing re-runs.
            assert client.submit(request("dup"), timeout_s=5) == "dup"
            service.run_until_idle(max_wait_s=10)
            assert client.status("dup") == first
        finally:
            service.shutdown()

    def test_conflicting_resubmission_rejected(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(request("c1"), wait_admission=False)
            service.run_until_idle(max_wait_s=60)
            with pytest.raises(StudyConflictError):
                client.submit(request("c1", priority=9), timeout_s=5)
            # The daemon-side check matches the client-side one.
            service._admit(request("c1", priority=9).to_payload())
            rejection = proto.read_json(
                service.paths.rejection_file("c1")
            )
            assert rejection["code"] == "study_conflict"
        finally:
            service.shutdown()

    def test_out_of_range_request_rejected_at_admission(self, tmp_path):
        bad = {
            "max_tenant_slots": (0, "must be > 0, got 0"),
            "batch_size": (0, "must be > 0, got 0"),
            "max_trial_retries": (-1, "must be >= 0, got -1"),
            "max_failed_trials": (-1, "must be >= 0, got -1"),
            "priority": ("high", "must be int, got str"),
        }
        service = make_service(tmp_path).start()
        try:
            for field, (value, message) in bad.items():
                message = f"StudyRequest.{field} {message}"
                with pytest.raises((TypeError, ValueError), match=message):
                    request("bad", **{field: value})
                service._admit(
                    dict(request("bad").to_payload(), **{field: value})
                )
                rejection = proto.read_json(
                    service.paths.rejection_file("bad")
                )
                assert rejection["message"] == message
            assert not service._queued
        finally:
            service.shutdown()

    def test_resubmission_over_an_older_request_file_is_noop(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        # request.json as the version before StudyRequest lost its
        # checkpoint_every field wrote it.
        proto.atomic_write_json(service.paths.request_file("old"), {
            "study_id": "old", "tenant": "default", "space": SPACE,
            "algorithm": "grid", "algorithm_kwargs": {},
            "objective": "fast_mock", "batch_size": None, "priority": 0,
            "weight": 1.0, "max_trial_retries": 0, "max_failed_trials": None,
            "max_tenant_slots": None, "checkpoint_every": 1,
            "stage_epochs": None,
        })
        try:
            assert client.submit(request("old"), timeout_s=5) == "old"
            service._admit(request("old").to_payload())
            assert proto.read_json(service.paths.rejection_file("old")) is None
            assert not service._queued
        finally:
            service.shutdown()

    def test_queue_full_rejection_reaches_client(self, tmp_path):
        service = make_service(
            tmp_path, max_queued_studies=1, max_concurrent_studies=1,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        # Freeze the scheduler so the queued study cannot start and the
        # queue stays full while the rejection propagates.
        service._draining = True
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                service.step()
                time.sleep(0.01)

        pumper = threading.Thread(target=pump, daemon=True)
        try:
            service._admit(request("q1").to_payload())
            pumper.start()
            with pytest.raises(QueueFullError):
                client.submit(request("q2"), timeout_s=10)
        finally:
            stop.set()
            pumper.join(timeout=5)
            service.shutdown()

    def test_cancel_queued_study(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("victim").to_payload())
            client.cancel("victim")
            service._check_cancel_flags()
            assert client.status("victim")["status"] == proto.CANCELLED
            assert not service._queued
        finally:
            service.shutdown()

    def test_load_shedding_under_memory_pressure(self, tmp_path):
        rss = {"mb": 0.0}
        service = HPOService(
            tmp_path / "svc",
            runtime_config=RuntimeConfig(cluster=local_machine(4)),
            admission=AdmissionConfig(rss_limit_mb=100.0),
            rss_fn=lambda: rss["mb"],
            heartbeat_s=0.05,
        ).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("shed-me").to_payload())
            rss["mb"] = 10_000.0
            service._relieve_pressure()
            assert client.status("shed-me")["status"] == proto.SHED
            service._admit(request("late").to_payload())
            rejection = proto.read_json(service.paths.rejection_file("late"))
            assert rejection["code"] == ServiceOverloadedError.code
            events = service.runtime.analysis().service()
            assert events["loads_shed"] == 1
        finally:
            service.shutdown()

    def test_service_status_counts_and_manifest(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            client.submit(request("st1"), wait_admission=False)
            service.run_until_idle(max_wait_s=60)
            status = client.service_status()
            assert status["daemon"]["status"] == "running"
            assert status["daemon"]["generation"] == 1
            assert status["studies"] == {proto.COMPLETED: 1}
        finally:
            service.shutdown()
        assert client.service_status()["daemon"]["status"] == "stopped"


# ----------------------------------------------------------------------
# Client behaviour
# ----------------------------------------------------------------------
class TestServiceClient:
    def test_watch_times_out_with_typed_error(self, tmp_path):
        service = make_service(tmp_path).start()
        client = ServiceClient(service.paths.root, poll_s=0.01)
        try:
            service._admit(request("stuck").to_payload())
            with pytest.raises(ClientTimeoutError):
                client.watch("stuck", timeout_s=0.1)
        finally:
            service.shutdown()

    def test_status_finds_a_study_as_soon_as_submit_returns(
        self, tmp_path, monkeypatch
    ):
        """Admission writes ``request.json`` and then the queued state;
        ``submit`` returns only once the state is there."""
        import repro.service.daemon as daemon

        service = make_service(tmp_path).start()
        write_state = service._write_state
        request_written = threading.Event()

        def slow_write_state(study_id, status, **extra):
            if request_written.is_set() and status == proto.QUEUED:
                time.sleep(0.3)  # widen the gap between the two writes
            write_state(study_id, status, **extra)

        write = daemon.proto.atomic_write_json

        def noting_write(path, payload):
            write(path, payload)
            if path.name == proto.REQUEST_FILE:
                request_written.set()

        monkeypatch.setattr(service, "_write_state", slow_write_state)
        monkeypatch.setattr(daemon.proto, "atomic_write_json", noting_write)
        client = ServiceClient(service.paths.root, poll_s=0.01)
        server = threading.Thread(
            target=service.serve_forever, kwargs={"poll_s": 0.01}, daemon=True
        )
        server.start()
        try:
            assert client.submit(request("early"), timeout_s=30) == "early"
            assert client.status("early")["study_id"] == "early"
        finally:
            service.shutdown()
            server.join(timeout=5)

    def test_unknown_study_raises_not_found(self, tmp_path):
        paths = proto.ServicePaths(tmp_path / "svc")
        paths.ensure_layout()
        client = ServiceClient(paths.root)
        with pytest.raises(StudyNotFoundError):
            client.status("ghost")
        with pytest.raises(StudyNotFoundError):
            client.result("ghost")
        with pytest.raises(StudyNotFoundError):
            client.cancel("ghost")

    def test_submit_timeout_when_no_daemon(self, tmp_path):
        paths = proto.ServicePaths(tmp_path / "svc")
        paths.ensure_layout()
        client = ServiceClient(paths.root, poll_s=0.01)
        with pytest.raises(ClientTimeoutError, match="safe to retry"):
            client.submit(request("orphan"), timeout_s=0.1)


# ----------------------------------------------------------------------
# Protocol plumbing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_round_trip_ignores_unknown_keys(self):
        r = request("rt", tenant="t", priority=3)
        payload = dict(r.to_payload(), future_field="ignored")
        assert proto.StudyRequest.from_payload(payload) == r

    def test_request_validation(self):
        with pytest.raises(ValueError, match="study_id"):
            request("")
        with pytest.raises(ValueError, match="study_id"):
            request("evil/../escape")
        with pytest.raises(ValueError, match="weight"):
            request("w", weight=0.0)

    def test_atomic_write_survives_torn_reader(self, tmp_path):
        target = tmp_path / "x.json"
        proto.atomic_write_json(target, {"v": 1})
        assert proto.read_json(target) == {"v": 1}
        target.write_text("{not json", encoding="utf-8")
        assert proto.read_json(target) is None

    def test_resolve_objective_registry_and_dotted_path(self):
        fn = proto.resolve_objective("fast_mock")
        assert fn({"optimizer": "Adam", "num_epochs": 10})
        fn2 = proto.resolve_objective(
            "repro.hpo.objective:fast_mock_objective"
        )
        assert fn2 is fn
        with pytest.raises(ValueError, match="objective"):
            proto.resolve_objective("no_such_thing")
