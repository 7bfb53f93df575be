"""Study sessions: every study's durability namespace, owned in one place.

A runtime always has the solo session, study ``""``; a multi-tenant
service (``repro serve``) opens one more per study.  Each
:class:`StudySession` bundles the study's task keyer, write-ahead
journal, checkpoint store and replay manager, plus its in-flight join
map (content key → live node), so everything a study owns closes with
it.  :class:`StudySessions` is the registry: it builds sessions, routes
a thread's submissions through its scope, and answers the per-study
lookups the rest of the runtime makes (where a task's failure is
journaled, where its spill lives, where suspend spills go).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union, TYPE_CHECKING

from repro.runtime import checkpoint as ckpt
from repro.runtime.fault import StudyAbandonedError
from repro.runtime.lineage import fail_task
from repro.runtime.resilience import STUDY_FAILED
from repro.runtime.task_definition import TaskInvocation, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime


class StudySession:
    """One study's namespaced durability bundle inside a shared runtime.

    The solo session's empty namespace keeps keys byte-identical to an
    unsalted keyer; a tenant study's keys are salted with its id (see
    :class:`~repro.runtime.checkpoint.TaskKeyer`), so sibling studies can
    never interleave journal records or share task keys — the
    fault-isolation invariant the service's chaos tests assert.
    ``joins`` maps a content key to the study's live node for it (see
    :meth:`COMPSsRuntime.submit <repro.runtime.runtime.COMPSsRuntime.submit>`).
    """

    __slots__ = (
        "study_id", "keyer", "journal", "checkpoint_store", "recovery",
        "tenant", "joins",
    )

    def __init__(
        self,
        study_id: str,
        keyer: Optional[ckpt.TaskKeyer] = None,
        journal: Optional[ckpt.WriteAheadJournal] = None,
        checkpoint_store: Optional[ckpt.CheckpointStore] = None,
        recovery: Optional[ckpt.RecoveryManager] = None,
        tenant: str = "",
    ):
        self.study_id = study_id
        self.keyer = keyer
        self.journal = journal
        self.checkpoint_store = checkpoint_store
        self.recovery = recovery
        self.tenant = tenant
        self.joins: Dict[str, TaskInvocation] = {}

    def open(self, cluster: str) -> None:
        """Mark one driver process's start in the study's journal."""
        if self.journal is not None:
            self.journal.open_session(
                cluster=cluster, resumed=self.recovery is not None
            )

    def close(self) -> None:
        """Flush and close the study's journal (idempotent)."""
        self.joins.clear()
        if self.journal is not None:
            self.journal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StudySession {self.study_id!r} tenant={self.tenant!r}>"


class _StudyScope(threading.local):
    """Per-thread submission session; every thread starts in ``solo``."""

    def __init__(self, solo: StudySession) -> None:
        self.session = solo


class StudySessions:
    """The runtime's open study sessions, keyed by study id.

    ``by_id`` always holds the solo session under ``""``; a task's
    ``study`` finds its session there (none once its study has closed).
    ``local.session`` is the calling thread's submission scope.
    """

    def __init__(
        self,
        runtime: "COMPSsRuntime",
        checkpoint_dir: Optional[Path],
        replay_dir: Optional[Path],
    ):
        self._runtime = runtime
        self.solo = self._build("", checkpoint_dir, replay_dir)
        self.by_id: Dict[str, StudySession] = {"": self.solo}
        #: Thread-local submission scope: a study worker thread enters
        #: :meth:`scope` so its submissions are keyed, journaled and
        #: restored against that study's namespace; every other thread
        #: submits into the solo session.
        self.local = _StudyScope(self.solo)

    def _build(
        self,
        study_id: str,
        checkpoint_dir: Optional[Path],
        replay_dir: Optional[Path],
        tenant: str = "",
    ) -> StudySession:
        """The one construction of a keyer / journal / store / recovery
        bundle: the solo runtime's (study "") and every tenant study's.

        ``replay_dir`` holds a previous life's journal to restore from;
        without a ``checkpoint_dir`` nothing is keyed or journaled.
        """
        config = self._runtime.config
        recovery = (
            ckpt.RecoveryManager(replay_dir, log=self._runtime.resilience)
            if replay_dir is not None
            else None
        )
        if checkpoint_dir is None:
            return StudySession(study_id, recovery=recovery, tenant=tenant)
        return StudySession(
            study_id,
            keyer=ckpt.TaskKeyer(namespace=study_id),
            journal=ckpt.WriteAheadJournal(
                checkpoint_dir / ckpt.JOURNAL_FILE,
                fsync=config.journal_fsync,
                buffer_records=config.journal_buffer_records,
            ),
            checkpoint_store=ckpt.CheckpointStore(
                checkpoint_dir / ckpt.OUTPUTS_DIR,
                cadence=config.checkpoint_every,
            ),
            recovery=recovery,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    # Open / close / scope
    # ------------------------------------------------------------------
    def open(
        self,
        study_id: str,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        *,
        priority: int = 0,
        weight: float = 1.0,
        tenant: str = "",
        max_tenant_slots: Optional[int] = None,
    ) -> StudySession:
        """Open a fault-isolated session for one tenant study.

        The session bundles a task keyer salted with ``study_id`` (so two
        studies running the identical space never share task keys), its
        own write-ahead journal and checkpoint store under
        ``checkpoint_dir``, and — when that directory already holds a
        journal from a previous daemon life — a recovery manager that
        replays it, giving the study exactly-once resumption after a
        whole-daemon crash.  The study is also registered with the
        dispatch engine as a fair-share lane (``priority``/``weight``)
        under the tenant's slot quota.
        """
        if not study_id:
            raise ValueError("study_id must be non-empty")
        if study_id in self.by_id:
            raise ValueError(f"study {study_id!r} is already open")
        runtime = self._runtime
        ckpt_path = Path(checkpoint_dir) if checkpoint_dir is not None else None
        # A journal from a previous daemon life is replayed so the
        # completed prefix restores instead of re-executing.
        replay = (
            ckpt_path
            if ckpt_path is not None and (ckpt_path / ckpt.JOURNAL_FILE).exists()
            else None
        )
        session = self._build(study_id, ckpt_path, replay, tenant=tenant)
        session.open(runtime.cluster.name)
        with runtime.lock:
            self.by_id[study_id] = session
            # Under the runtime lock: the dispatch engine's share table is
            # also read by scheduling rounds, which run under this lock.
            runtime.dispatcher.register_study(
                study_id, priority=priority, weight=weight,
                tenant=tenant, max_tenant_slots=max_tenant_slots,
            )
        return session

    def close(self, study_id: str) -> None:
        """Close a study session: flush its journal, drop its share lane."""
        if not study_id:
            raise ValueError("the solo session closes with the runtime")
        with self._runtime.lock:
            session = self.by_id.pop(study_id, None)
            self._runtime.dispatcher.unregister_study(study_id)
        if session is not None:
            session.close()

    def close_all(self) -> None:
        """Close every session, the solo one too (runtime stop)."""
        for session in list(self.by_id.values()):
            session.close()
        self.by_id = {"": self.solo}

    @contextmanager
    def scope(self, session: StudySession) -> Iterator[None]:
        """Route this thread's submissions through ``session``.

        Worker threads of the service daemon wrap each study's runner in
        this scope; everything the study submits is keyed, journaled and
        restored against the study's namespace, while other threads stay
        in theirs (the solo session unless scoped).
        """
        local = self.local
        previous, local.session = local.session, session
        try:
            yield
        finally:
            local.session = previous

    def abandon(
        self, study_id: str, reason: str = "", kind: str = STUDY_FAILED
    ) -> int:
        """Terminate one study, leaving every other tenant untouched.

        Fails all of the study's unfinished tasks with
        :class:`StudyAbandonedError` (terminal — never retried), journals
        the failures into the study's own journal, tombstones its queued
        entries in the dispatch engine, and records one ``study_failed``
        resilience event (``kind`` selects ``study_cancelled`` for
        tenant-initiated cancellation).  Running attempts of the study
        resolve quietly: the executors' completion paths discard results
        for tasks that are no longer RUNNING.  Returns the number of
        tasks cancelled.
        """
        runtime = self._runtime
        now = runtime.executor.clock()
        victims: List[TaskInvocation] = []
        with runtime.lock:
            for task in runtime.graph.tasks():
                if task.study != study_id:
                    continue
                if task.state in (TaskState.DONE, TaskState.FAILED):
                    continue
                exc = StudyAbandonedError(task.label, study_id, reason)
                fail_task(runtime, task, exc, f"study abandoned: {exc}")
                victims.append(task)
            runtime.dispatcher.purge(victims)
        runtime.resilience.record(
            now, kind, detail=f"study={study_id} reason={reason} "
            f"cancelled={len(victims)}",
        )
        # Wake any waiter blocked on the study's tasks so the study's
        # worker thread observes the terminal failures promptly.
        runtime.executor.notify_task_resolutions()
        return len(victims)

    # ------------------------------------------------------------------
    # Per-study lookups
    # ------------------------------------------------------------------
    def journal_failed(self, task: TaskInvocation, node: str = "") -> None:
        """Journal a ``failed`` record for ``task`` in its study's journal.

        A study closed before its task resolved journals nowhere.
        """
        session = self.by_id.get(task.study)
        journal = session.journal if session is not None else None
        if journal is None or task.task_key is None:
            return
        journal.append(
            ckpt.FAILED, task.task_key, task=task.label,
            node=node or (task.node or ""),
        )

    def store_for(self, task: TaskInvocation) -> Optional[ckpt.CheckpointStore]:
        """The spill store of ``task``'s study (None once it closed)."""
        session = self.by_id.get(task.study)
        return session.checkpoint_store if session is not None else None

    def preempt_spill_dir(self) -> Optional[Path]:
        """Directory for suspend spills in the calling thread's scope.

        Lives beside the checkpoint store's outputs directory (per-study
        in service mode, global otherwise) so suspend spills inherit the
        same crash-safety story and survive daemon generations at a
        stable path.  ``None`` — preemption disabled — when no checkpoint
        directory is configured, since warm suspension without a durable
        spill target would silently be a cold restart.
        """
        store = self.local.session.checkpoint_store
        if store is None:
            return None
        return store.directory.parent / "preempt"

    def resume_stats(self) -> Optional[Dict[str, Any]]:
        """Journal-replay summary for resumed sessions (else ``None``).

        In service mode the calling thread's study scope selects which
        study's recovery is summarised.
        """
        recovery = self.local.session.recovery
        if recovery is None:
            return None
        stats = recovery.summary()
        stats["restored_this_session"] = recovery.restored
        return stats

    def spill_node_data(self, node: str) -> int:
        """Persist data resident on ``node`` before it goes away.

        Two mechanisms, both best-effort: every DONE output produced on
        the node is spilled to its study's checkpoint store (when
        configured, and regardless of the spill cadence), and the
        simulated integrity manager copies the node's only-good copies
        onto other up nodes.  A value released to the reuse cache is
        read back from its verified entry to be spilled; one whose entry
        is gone is skipped (its next reader recomputes it).  Returns the
        number of task outputs protected.
        """
        from repro.runtime.reuse import MISS

        runtime = self._runtime
        release = runtime.release
        protected = 0
        with runtime.lock:
            for task in runtime.graph.tasks():
                # Only a journaled (keyed) task has a store to spill to.
                if (
                    task.task_key is None
                    or task.state != TaskState.DONE
                    or task.node != node
                ):
                    continue
                store = self.store_for(task)
                if store is None:
                    continue
                value = task.result
                if (
                    release is not None
                    and release.is_released(task)
                    and not store.has(task.task_key)
                ):
                    value = release.load(task)
                    if value is MISS:
                        continue
                if store.save(task.task_key, value):
                    protected += 1
            if runtime.integrity is not None:
                targets = [
                    w.name
                    for w in runtime.pool.workers.values()
                    if w.available and w.name != node
                ]
                protected += runtime.integrity.evacuate(node, targets)
        return protected
