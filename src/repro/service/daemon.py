"""The ``repro serve`` daemon: many tenant studies, one shared runtime.

One :class:`HPOService` owns one :class:`~repro.runtime.runtime.
COMPSsRuntime` (and therefore one shared :class:`ResourcePool`) and runs
admitted studies in worker threads, each inside its own
:meth:`~repro.runtime.sessions.StudySessions.scope` so journaling,
task keys and recovery are namespaced per study.  The daemon's main loop
is a plain poll over the file-spool protocol — no sockets, no extra
dependencies — which is also what makes whole-daemon crash recovery
trivial: every admission decision and study state lives on disk, so a
restarted daemon rebuilds its world from a directory scan.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.hpo.runner import PyCOMPSsRunner, StudyCallback
from repro.hpo.space import SearchSpace
from repro.hpo.trial import Study, Trial, TrialStatus
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor.simulated import SimulatedExecutor
from repro.runtime.runtime import COMPSsRuntime
from repro.service import protocol as proto
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.errors import (
    ServiceError,
    StudyCancelledError,
    StudyConflictError,
    StudyFailedError,
    StudySuspendedError,
)
from repro.util.logging_utils import get_logger

_log = get_logger("service")


class _QueuedStudy:
    """One admitted-but-not-yet-running study (FIFO by ``seq``)."""

    __slots__ = ("request", "seq")

    def __init__(self, request: proto.StudyRequest, seq: int):
        self.request = request
        self.seq = seq

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def priority(self) -> int:
        return self.request.priority


class _StudyDrained(Exception):
    """Raised in a study's worker once shutdown has re-queued the study."""


class _StudyGuard(StudyCallback):
    """Per-study resilience budget + cancellation check (fault isolation).

    Raises out of the runner's loop — confined to the study's own worker
    thread — when the tenant cancels, the study burns through its
    failed-trial budget, or a draining shutdown re-queued it.  Raising
    (rather than any global flag) is what keeps the blast radius to one
    study.
    """

    def __init__(
        self,
        service: "HPOService",
        study_id: str,
        max_failed_trials: Optional[int],
    ):
        self.service = service
        self.study_id = study_id
        self.max_failed_trials = max_failed_trials
        self.failed = 0

    def _check_cancel(self) -> None:
        if self.service.cancel_requested(self.study_id):
            raise StudyCancelledError(
                f"study {self.study_id!r} cancelled by tenant"
            )

    def _check_suspend(self) -> None:
        if self.service.suspend_requested(self.study_id):
            raise StudySuspendedError(
                f"study {self.study_id!r} suspended by memory watchdog"
            )

    def _check_drain(self) -> None:
        # A study the drain re-queued before it submitted (or after it
        # resubmitted) a trial must not run on to 'completed' over the
        # 'queued' state; its next daemon life resumes it exactly-once.
        if self.service.drain_requested(self.study_id):
            raise _StudyDrained(
                f"study {self.study_id!r} re-queued by daemon shutdown"
            )

    def on_trial_start(self, study: Study, trial: Trial) -> None:
        self._check_drain()
        self._check_cancel()
        self._check_suspend()

    def on_trial_suspended(self, study: Study, trial: Trial) -> None:
        # A trial just spilled warm; if the watchdog wants the whole
        # study out, stop here — the spill stays on disk and the study's
        # resumption warm-restores it.
        self._check_drain()
        self._check_cancel()
        self._check_suspend()

    def on_trial_complete(self, study: Study, trial: Trial) -> None:
        self._check_drain()
        self._check_cancel()
        self._check_suspend()
        if trial.status == TrialStatus.FAILED:
            self.failed += 1
            budget = self.max_failed_trials
            if budget is not None and self.failed > budget:
                raise StudyFailedError(
                    f"study {self.study_id!r} exceeded its failed-trial "
                    f"budget ({self.failed} failed > "
                    f"max_failed_trials={budget})"
                )


class HPOService:
    """A multi-tenant HPO daemon over one service root directory.

    Parameters
    ----------
    root:
        Service root (shared filesystem path clients also see).
    runtime_config:
        Runtime for the shared pool.  ``checkpoint_dir`` is ignored —
        checkpointing is per-study, under each study's directory.  With
        ``reuse_cache`` on and no explicit ``cache_dir``, the shared
        stage cache is anchored at ``<root>/reuse-cache`` so all tenants
        (and successive daemon generations) reuse each other's verified
        stage outputs.
    admission:
        Backpressure knobs (:class:`AdmissionConfig`).
    rss_fn:
        Override of the memory probe (tests inject fake pressure).
    drain_deadline_s:
        Graceful-shutdown budget: studies still running at the deadline
        are re-queued on disk (they resume exactly-once on the next
        daemon life) instead of being waited on forever.
    heartbeat_s:
        Cadence of the ``daemon.json`` liveness stamp.
    """

    def __init__(
        self,
        root: Union[str, Path],
        runtime_config: Optional[RuntimeConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        rss_fn=None,
        drain_deadline_s: float = 30.0,
        heartbeat_s: float = 1.0,
    ):
        self.paths = proto.ServicePaths(Path(root))
        self.config = runtime_config or RuntimeConfig()
        if self.config.reuse_cache and self.config.cache_dir is None:
            # Service mode ignores the global checkpoint_dir (spills are
            # per-study), so anchor the shared reuse cache under the
            # service root instead: every tenant and every daemon
            # generation resolves the same entries.
            self.config.cache_dir = str(self.paths.root / "reuse-cache")
        self.controller = AdmissionController(
            admission or AdmissionConfig(), rss_fn=rss_fn
        )
        self.drain_deadline_s = drain_deadline_s
        self.heartbeat_s = heartbeat_s
        self.runtime: Optional[COMPSsRuntime] = None
        self.generation = 0
        self._lock = threading.Lock()
        self._seq = 0
        self._queued: List[_QueuedStudy] = []
        self._running: Dict[str, threading.Thread] = {}
        self._running_tenants: Dict[str, str] = {}
        self._cancels: set = set()
        self._drain_requeue: set = set()
        #: Running studies the memory watchdog asked to suspend warm,
        #: plus the request metadata needed to pick victims and requeue.
        self._suspends: set = set()
        self._suspend_deadlines: Dict[str, float] = {}
        self._suspend_requeue: set = set()
        self._running_meta: Dict[str, proto.StudyRequest] = {}
        self._stop = threading.Event()
        self._draining = False
        self._last_heartbeat = 0.0
        #: Daemon-wide concurrency: the simulated executor advances one
        #: virtual clock from the waiting thread and cannot be pumped by
        #: several studies at once, so simulated backends serialise.
        self._max_workers = self.controller.config.max_concurrent_studies

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "HPOService":
        """Build the shared runtime and recover any interrupted studies."""
        self.paths.ensure_layout()
        self.runtime = COMPSsRuntime(self.config).start()
        if isinstance(self.runtime.executor, SimulatedExecutor):
            self._max_workers = 1
        manifest = proto.read_json(self.paths.daemon_file) or {}
        self.generation = int(manifest.get("generation", 0)) + 1
        self._recover_studies()
        self._write_manifest("running")
        _log.info(
            "service daemon generation %d serving %s",
            self.generation, self.paths.root,
        )
        return self

    def _recover_studies(self) -> None:
        """Re-queue every study a previous daemon life left unfinished.

        A SIGKILLed daemon leaves studies in ``queued``/``running``
        states; their journals hold the completed prefix, so re-running
        them restores those tasks instead of re-executing (exactly-once).
        """
        if not self.paths.studies.is_dir():
            return
        recovered = []
        for study_dir in sorted(self.paths.studies.iterdir()):
            state = proto.read_json(study_dir / proto.STATE_FILE) or {}
            if state.get("status") not in proto.RESUMABLE_STATES:
                continue
            payload = proto.read_json(study_dir / proto.REQUEST_FILE)
            if payload is None:
                continue
            try:
                request = proto.StudyRequest.from_payload(payload)
            except (TypeError, ValueError):
                self._write_state(
                    study_dir.name, proto.FAILED,
                    detail="unreadable request.json after restart",
                )
                continue
            self._enqueue(request, detail=f"recovered (gen {self.generation})")
            recovered.append(request.study_id)
        if recovered:
            _log.info("recovered %d interrupted studies: %s",
                      len(recovered), ", ".join(recovered))

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon; optionally drain running studies first.

        With ``drain`` the daemon stops admitting, waits up to
        ``drain_deadline_s`` for running studies, then re-queues the
        stragglers on disk (they resume on the next daemon life) and
        abandons their in-flight tasks so worker threads unblock.
        """
        self._stop.set()
        self._draining = True
        runtime = self.runtime
        if runtime is None:
            return
        if drain:
            deadline = time.monotonic() + self.drain_deadline_s
            while time.monotonic() < deadline:
                self._reap_workers()
                with self._lock:
                    if not self._running:
                        break
                time.sleep(0.02)
        with self._lock:
            stragglers = list(self._running)
            # Queued studies stay 'queued' on disk — picked up next life.
            self._queued.clear()
        for study_id in stragglers:
            # Mark for resume *before* abandoning so the worker thread's
            # failure path knows not to overwrite the state.
            with self._lock:
                self._drain_requeue.add(study_id)
            self._write_state(
                study_id, proto.QUEUED,
                detail="drain deadline: re-queued for next daemon life",
            )
            runtime.sessions.abandon(
                study_id, reason="daemon draining", kind=rsl.STUDY_CANCELLED
            )
        for thread in list(self._running.values()):
            thread.join(timeout=5.0)
        self._write_manifest("stopped")
        runtime.stop(wait=False)
        self.runtime = None
        _log.info("service daemon stopped (drained=%s)", drain)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def serve_forever(self, poll_s: float = 0.05) -> None:
        """Block serving requests until :meth:`shutdown` (or SIGTERM)."""
        while not self._stop.is_set():
            self.step()
            time.sleep(poll_s)

    def run_until_idle(
        self, poll_s: float = 0.02, max_wait_s: Optional[float] = None
    ) -> None:
        """Serve until the inbox, queue and running set are all empty.

        The ``repro serve --once`` mode: lets CI submit a batch, run one
        daemon pass to completion, and exit deterministically.
        """
        deadline = (
            time.monotonic() + max_wait_s if max_wait_s is not None else None
        )
        while not self._stop.is_set():
            busy = self.step()
            if not busy:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"service still busy after {max_wait_s:g}s"
                )
            time.sleep(poll_s)

    def step(self) -> bool:
        """One poll iteration; returns True while there is work in flight."""
        self._consume_inbox()
        self._check_cancel_flags()
        self._relieve_pressure()
        self._escalate_suspends()
        self._reap_workers()
        self._resume_suspended()
        self._start_ready_studies()
        self._heartbeat()
        with self._lock:
            busy = bool(self._queued or self._running)
        return busy or any(self.paths.inbox.glob("*.json"))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _consume_inbox(self) -> None:
        for path in sorted(self.paths.inbox.glob("*.json")):
            payload = proto.read_json(path)
            if payload is None:
                continue  # mid-rename or torn tmp; next poll sees it
            try:
                self._admit(payload)
            finally:
                try:
                    path.unlink()
                except OSError:
                    pass

    def _admit(self, payload: Dict[str, Any]) -> None:
        study_id = str(payload.get("study_id", ""))
        try:
            request = proto.StudyRequest.from_payload(payload)
        except (TypeError, ValueError) as exc:
            self._reject(study_id or "invalid", ServiceError(str(exc)))
            return
        existing = proto.read_json(self.paths.request_file(request.study_id))
        if existing is not None:
            if request.matches(existing):
                return  # idempotent re-submission: already admitted
            self._reject(
                request.study_id,
                StudyConflictError(
                    f"study {request.study_id!r} already exists with a "
                    "different specification"
                ),
            )
            return
        with self._lock:
            if any(q.request.study_id == request.study_id
                   for q in self._queued):
                return
            queued_tenants = [q.tenant for q in self._queued]
        try:
            self.controller.check_admission(request.tenant, queued_tenants)
        except ServiceError as exc:
            self._reject(request.study_id, exc)
            return
        self._enqueue(request, detail="admitted")
        try:
            self.paths.rejection_file(request.study_id).unlink()
        except OSError:
            pass
        assert self.runtime is not None
        self.runtime.resilience.record(
            self.runtime.executor.clock(), rsl.STUDY_ADMITTED,
            detail=f"study={request.study_id} tenant={request.tenant}",
        )

    def _enqueue(self, request: proto.StudyRequest, detail: str) -> None:
        proto.atomic_write_json(
            self.paths.request_file(request.study_id), request.to_payload()
        )
        self._write_state(
            request.study_id, proto.QUEUED,
            tenant=request.tenant, detail=detail,
        )
        with self._lock:
            self._seq += 1
            self._queued.append(_QueuedStudy(request, self._seq))

    def _reject(self, study_id: str, error: ServiceError) -> None:
        proto.atomic_write_json(
            self.paths.rejection_file(study_id),
            {"study_id": study_id, "code": error.code, "message": str(error)},
        )
        _log.info("rejected study %s: %s", study_id, error)

    # ------------------------------------------------------------------
    # Scheduling / watchdogs
    # ------------------------------------------------------------------
    def _start_ready_studies(self) -> None:
        if self._draining:
            return
        with self._lock:
            free_cap = self._max_workers - len(self._running)
            if free_cap <= 0 or not self._queued:
                return
            picks = self.controller.pick_next(
                self._queued,
                list(self._running_tenants.values()),
                len(self._running),
            )[:free_cap]
            records = [self._queued[i] for i in picks]
            for rec in sorted(records, key=lambda r: r.seq, reverse=True):
                self._queued.remove(rec)
            for rec in records:
                sid = rec.request.study_id
                thread = threading.Thread(
                    target=self._run_study, args=(rec.request,),
                    name=f"repro-study-{sid}", daemon=True,
                )
                self._running[sid] = thread
                self._running_tenants[sid] = rec.tenant
                self._running_meta[sid] = rec.request
        for rec in records:
            self._running[rec.request.study_id].start()

    def _reap_workers(self) -> None:
        with self._lock:
            done = [
                sid for sid, t in self._running.items() if not t.is_alive()
            ]
            for sid in done:
                self._running.pop(sid, None)
                self._running_tenants.pop(sid, None)
                self._running_meta.pop(sid, None)
                self._cancels.discard(sid)
                self._suspends.discard(sid)
                self._suspend_deadlines.pop(sid, None)
                self._suspend_requeue.discard(sid)

    def _check_cancel_flags(self) -> None:
        if not self.paths.studies.is_dir():
            return
        for study_dir in self.paths.studies.iterdir():
            if not (study_dir / proto.CANCEL_FILE).exists():
                continue
            sid = study_dir.name
            with self._lock:
                if sid in self._cancels:
                    continue
                queued = next(
                    (q for q in self._queued
                     if q.request.study_id == sid), None,
                )
                if queued is not None:
                    self._queued.remove(queued)
                running = sid in self._running
                self._cancels.add(sid)
            if queued is not None:
                self._write_state(
                    sid, proto.CANCELLED, detail="cancelled while queued"
                )
                assert self.runtime is not None
                self.runtime.resilience.record(
                    self.runtime.executor.clock(), rsl.STUDY_CANCELLED,
                    detail=f"study={sid} reason=cancelled-while-queued",
                )
            elif not running:
                self._cancels.discard(sid)  # already terminal: ignore flag

    def cancel_requested(self, study_id: str) -> bool:
        """Polled by the per-study guard between trials."""
        with self._lock:
            return study_id in self._cancels

    def suspend_requested(self, study_id: str) -> bool:
        """Polled by the per-study guard between trials / at suspensions."""
        with self._lock:
            return study_id in self._suspends

    def drain_requested(self, study_id: str) -> bool:
        """Polled by the per-study guard: shutdown re-queued the study."""
        with self._lock:
            return study_id in self._drain_requeue

    def _relieve_pressure(self) -> None:
        """Memory watchdog, suspend-before-shed.

        Tier 1 suspends lowest-priority *running* studies warm: their
        preemptible trials spill training state at the next checkpoint
        epoch, the study parks as ``suspended`` on disk and re-enqueues
        once pressure clears — no work lost.  Only when there is nothing
        left to suspend does tier 2 shed queued studies outright.
        """
        if not self.controller.overloaded():
            return
        assert self.runtime is not None
        with self._lock:
            candidates = [
                _QueuedStudy(self._running_meta[sid], i)
                for i, sid in enumerate(self._running)
                if sid in self._running_meta and sid not in self._suspends
            ]
        victims = self.controller.suspend_victims(candidates)
        if victims:
            # The grace runs on the executor's clock: virtual seconds on
            # the simulated executor, like the tasks it waits for.
            runtime = self.runtime
            deadline = runtime.executor.clock() + runtime.config.suspend_grace_s
            for i in victims:
                sid = candidates[i].request.study_id
                with self._lock:
                    self._suspends.add(sid)
                    self._suspend_deadlines[sid] = deadline
                # Flag the study's in-flight preemptible trials so they
                # spill warm instead of running their epochs to the end,
                # and pause its dispatch lane so nothing new starts while
                # the suspension is landing.
                self.runtime.preemption.suspend_study(
                    sid, reason="memory watchdog"
                )
                self.runtime.pause_study_dispatch(sid)
                _log.warning(
                    "suspending running study %s (memory pressure)", sid
                )
            return
        self._shed_queued()

    def _shed_queued(self) -> None:
        with self._lock:
            queued = list(self._queued)
        victims = self.controller.shed_victims(queued)
        if not victims:
            return
        assert self.runtime is not None
        for i in victims:
            rec = queued[i]
            with self._lock:
                if rec not in self._queued:
                    continue
                self._queued.remove(rec)
            sid = rec.request.study_id
            self._write_state(
                sid, proto.SHED,
                detail="shed by memory watchdog before the daemon ceiling",
            )
            self.runtime.resilience.record(
                self.runtime.executor.clock(), rsl.LOAD_SHED,
                detail=f"study={sid} tenant={rec.tenant}",
            )
            _log.warning("shed queued study %s (memory pressure)", sid)

    def _escalate_suspends(self) -> None:
        """Hard-park suspended studies still running past their grace.

        A study whose trials are between checkpoint epochs (or whose
        objective ignores the flag) cooperates too slowly: at
        ``suspend_grace_s`` its in-flight tasks are abandoned.  Whatever
        spilled by then still warm-resumes; the rest replays from the
        journal — suspended, never failed.
        """
        runtime = self.runtime
        if runtime is None:
            return
        now = runtime.executor.clock()
        with self._lock:
            overdue = [
                sid for sid, deadline in self._suspend_deadlines.items()
                if now > deadline and sid in self._running
            ]
            for sid in overdue:
                self._suspend_requeue.add(sid)
                self._suspend_deadlines.pop(sid, None)
        for sid in overdue:
            self._write_state(
                sid, proto.SUSPENDED,
                detail="suspend grace expired: in-flight tasks abandoned",
            )
            runtime.sessions.abandon(
                sid, reason="suspend grace expired",
                kind=rsl.STUDY_SUSPENDED,
            )
            _log.warning(
                "study %s did not suspend within grace; abandoned warm", sid
            )

    def _resume_suspended(self) -> None:
        """Re-enqueue suspended studies once memory pressure clears."""
        if self._draining or self.controller.overloaded():
            return
        if not self.paths.studies.is_dir():
            return
        for study_dir in sorted(self.paths.studies.iterdir()):
            state = proto.read_json(study_dir / proto.STATE_FILE) or {}
            if state.get("status") != proto.SUSPENDED:
                continue
            sid = study_dir.name
            with self._lock:
                if sid in self._running or sid in self._suspends:
                    continue
                if any(q.request.study_id == sid for q in self._queued):
                    continue
            payload = proto.read_json(study_dir / proto.REQUEST_FILE)
            if payload is None:
                continue
            try:
                request = proto.StudyRequest.from_payload(payload)
            except (TypeError, ValueError):
                continue
            self._enqueue(request, detail="resumed after suspension")
            _log.info("resuming suspended study %s (pressure cleared)", sid)

    # ------------------------------------------------------------------
    # Study execution (worker threads)
    # ------------------------------------------------------------------
    def _run_study(self, request: proto.StudyRequest) -> None:
        sid = request.study_id
        runtime = self.runtime
        assert runtime is not None
        self._write_state(sid, proto.RUNNING, tenant=request.tenant)
        session = None
        try:
            objective = proto.resolve_objective(request.objective)
            session = runtime.sessions.open(
                sid,
                checkpoint_dir=self.paths.checkpoint_dir(sid),
                priority=request.priority,
                weight=request.weight,
                tenant=request.tenant,
                max_tenant_slots=request.max_tenant_slots,
            )
            guard = _StudyGuard(self, sid, request.max_failed_trials)
            stage_plan = None
            if request.stage_epochs is not None:
                # Staged trials supersede the objective body: real
                # training for the "train" objective, the deterministic
                # cumulative curve for every mock flavour.
                from repro.hpo.stages import StagePlan

                stage_plan = StagePlan(
                    block_epochs=request.stage_epochs,
                    objective="train" if request.objective == "train"
                    else "mock",
                )
            with runtime.sessions.scope(session):
                runner = PyCOMPSsRunner(
                    request.algorithm,
                    space=SearchSpace.from_dict(request.space),
                    objective=objective,
                    batch_size=request.batch_size,
                    study_name=sid,
                    algorithm_kwargs=dict(request.algorithm_kwargs),
                    callbacks=[guard],
                    max_trial_retries=request.max_trial_retries,
                    stage_plan=stage_plan,
                )
                study = runner.run()
            self._finish_study(sid, study)
        except StudyCancelledError as exc:
            runtime.sessions.abandon(sid, str(exc), kind=rsl.STUDY_CANCELLED)
            self._write_state(sid, proto.CANCELLED, detail=str(exc))
        except StudySuspendedError as exc:
            # Warm park, not a failure: trials spilled their training
            # state, the study re-enqueues once pressure clears and its
            # journal + spills make the resumption exactly-once.
            runtime.sessions.abandon(sid, str(exc), kind=rsl.STUDY_SUSPENDED)
            self._write_state(sid, proto.SUSPENDED, detail=str(exc))
        except StudyFailedError as exc:
            # The study's own budget gave out: terminate it, leave every
            # other tenant untouched (abandon records `study_failed`).
            runtime.sessions.abandon(sid, str(exc))
            self._write_state(sid, proto.FAILED, detail=str(exc))
        except Exception as exc:  # noqa: BLE001 - isolate tenant failures
            with self._lock:
                requeued = (
                    sid in self._drain_requeue or sid in self._suspend_requeue
                )
            if requeued:
                # Shutdown re-queued it, or the suspend-grace escalation
                # already parked it as 'suspended' — don't overwrite.
                return
            runtime.sessions.abandon(sid, f"{type(exc).__name__}: {exc}")
            self._write_state(
                sid, proto.FAILED, detail=f"{type(exc).__name__}: {exc}"
            )
            _log.warning("study %s failed: %s", sid, exc)
        finally:
            if session is not None:
                runtime.sessions.close(sid)

    def _finish_study(self, sid: str, study: Study) -> None:
        proto.atomic_write_json(self.paths.result_file(sid), study.as_dict())
        extra: Dict[str, Any] = {
            "trials": len(study.trials),
            "completed_trials": len(study.completed()),
        }
        if study.completed():
            best = study.best_trial()
            extra["best"] = {
                "trial_id": best.trial_id,
                "config": best.config,
                "val_accuracy": best.val_accuracy,
            }
        resume = study.metadata.get("resume")
        if resume:
            extra["resume"] = resume
        assert self.runtime is not None
        # Event first: a client that reads 'completed' from disk must
        # also find the study counted in the runtime's log.
        self.runtime.resilience.record(
            self.runtime.executor.clock(), rsl.STUDY_COMPLETED,
            detail=f"study={sid} trials={len(study.trials)}",
        )
        self._write_state(sid, proto.COMPLETED, **extra)

    # ------------------------------------------------------------------
    # On-disk state
    # ------------------------------------------------------------------
    def _write_state(self, study_id: str, status: str, **extra: Any) -> None:
        payload: Dict[str, Any] = {
            "study_id": study_id,
            "status": status,
            "generation": self.generation,
            "updated_at": time.time(),
        }
        payload.update(extra)
        proto.atomic_write_json(self.paths.state_file(study_id), payload)

    def _write_manifest(self, status: str) -> None:
        with self._lock:
            queued = len(self._queued)
            running = sorted(self._running)
            suspending = sorted(self._suspends)
        proto.atomic_write_json(
            self.paths.daemon_file,
            {
                "pid": os.getpid(),
                "generation": self.generation,
                "status": status,
                "updated_at": time.time(),
                "queued": queued,
                "running": running,
                "suspending": suspending,
                "max_concurrent_studies": self._max_workers,
            },
        )
        self._last_heartbeat = time.monotonic()

    def _heartbeat(self) -> None:
        if time.monotonic() - self._last_heartbeat >= self.heartbeat_s:
            self._write_manifest("draining" if self._draining else "running")
