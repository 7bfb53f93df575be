"""The COMPSs-equivalent runtime: ties graph, scheduler, executor together.

One :class:`COMPSsRuntime` instance corresponds to one ``runcompss``
session.  ``@task`` wrappers submit invocations here; the runtime detects
dependencies via the access processor, inserts the task into the graph,
and hands execution to the configured executor.  ``wait_on`` / ``barrier``
provide the synchronisation API of the paper's Listing 2.
"""

from __future__ import annotations

import gc
import operator
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.runtime import checkpoint as ckpt
from repro.runtime.access_processor import AccessProcessor
from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatch import DispatchEngine
from repro.runtime.executor.base import Executor
from repro.runtime.executor.local import LocalExecutor
from repro.runtime.executor.simulated import SimulatedExecutor
from repro.runtime.future import Future, collect_futures, slot_futures, substitute
from repro.runtime.graph import TaskGraph
from repro.runtime.lineage import fail_descendants, preload, reacquire
from repro.pycompss_api.task_group import record_submission
from repro.runtime.preemption import PreemptionController
from repro.runtime.reuse import MISS as _CACHE_MISS, ReuseCache, StageRelease
from repro.runtime.resilience import (
    CHECKPOINT_RESTORE,
    DRAIN_COMPLETE,
    NODE_DRAINING,
    NODE_REJOINED,
    NodeHealth,
    ResilienceLog,
    StragglerDetector,
)
from repro.runtime.scheduler import Scheduler, get_scheduler
from repro.runtime.scheduler.locality import LocalityScheduler
from repro.runtime.sessions import StudySession, StudySessions
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    TaskState,
    reset_invocation_counter,
)
from repro.runtime.tracing.extrae import TraceRecorder
from repro.util.logging_utils import get_logger

if TYPE_CHECKING:
    from repro.runtime.integrity import IntegrityManager
    from repro.runtime.tracing.analysis import TraceAnalysis

_log = get_logger("runtime")

_INVOCATION = operator.attrgetter("invocation")
_TASK_ID = operator.attrgetter("task_id")

_current: Optional["COMPSsRuntime"] = None
_current_lock = threading.Lock()


def current_runtime() -> Optional["COMPSsRuntime"]:
    """The active runtime, or None (sequential fallback mode)."""
    return _current


def set_current(runtime: Optional["COMPSsRuntime"]) -> None:
    """Install/clear the active runtime (used by compss_start/stop)."""
    global _current
    with _current_lock:
        if runtime is not None and _current is not None:
            raise RuntimeError(
                "a COMPSs runtime is already active; call compss_stop() first"
            )
        _current = runtime


class COMPSsRuntime:
    """One runtime session over a (real or simulated) cluster.

    Parameters
    ----------
    config:
        Runtime configuration (cluster, scheduler, resilience knobs, and
        — for crash consistency — ``checkpoint_dir``/``checkpoint_every``).
    resume_from:
        Path to a previous run's checkpoint directory (or its
        ``journal.jsonl``).  The journal is replayed before any task
        runs: submissions matching a journaled-complete task with a
        stored output are *restored* instead of executed (exactly-once
        for the replayed prefix), and journaling continues into the same
        directory so a chain of crashes keeps one history.
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        resume_from: Optional[str] = None,
    ):
        from repro.runtime.resources import ResourcePool  # local import: cycle-free

        self.config = config or RuntimeConfig()
        self.cluster = self.config.cluster
        self.lock = threading.RLock()
        self._gc_managed = False
        self.graph = TaskGraph()
        self.access = AccessProcessor()
        self.tracer = TraceRecorder(enabled=self.config.tracing)
        self.pool = ResourcePool(self.cluster, self.config.reserved_cores)
        self.retry_policy = self.config.retry_policy
        self.failure_injector = self.config.failure_injector
        self.cost_model = self.config.cost_model
        #: Structured log of resilience decisions (timeouts, backoff
        #: waits, speculation, quarantine/probe) — see runtime/resilience.
        self.resilience = ResilienceLog()
        self.node_health = NodeHealth(
            threshold=self.config.quarantine_threshold,
            window=self.config.quarantine_window,
            min_events=self.config.quarantine_min_events,
            cooldown_s=self.config.quarantine_cooldown_s,
            log=self.resilience,
        )
        self.straggler: Optional[StragglerDetector] = (
            StragglerDetector(self.config.speculation_multiplier)
            if self.config.speculation_multiplier is not None
            else None
        )
        self.pool.health = self.node_health
        self.scheduler: Scheduler = (
            get_scheduler(self.config.scheduler)
            if isinstance(self.config.scheduler, str)
            else self.config.scheduler
        )
        #: The scheduler again when it wants dependency registration
        #: (locality policy), else None — avoids an isinstance per submit.
        self._locality: Optional[LocalityScheduler] = (
            self.scheduler
            if isinstance(self.scheduler, LocalityScheduler)
            else None
        )
        #: Incremental dispatch fast path shared by both executors: holds
        #: the per-constraint-class ready queues and is woken by the pool
        #: on capacity changes (event-driven partial rescheduling).
        self.dispatcher = DispatchEngine(self.scheduler, self.pool)
        self.pool.listener = self.dispatcher
        self.executor: Executor = self._make_executor()
        # Starvation watchdog wiring: the engine timestamps starved
        # constraint classes in the executor's clock and the executors
        # reap them after starvation_timeout_s.
        self.dispatcher.clock = self.executor.clock
        self.dispatcher.resilience = self.resilience
        self.dispatcher.starvation_timeout_s = self.config.starvation_timeout_s
        #: Cooperative trial preemption: flag registry + suspend/resume
        #: primitives (see runtime/preemption).  Always constructed; it
        #: only has work when the HPO runner registers preemptible trials.
        self.preemption = PreemptionController(
            log=self.resilience,
            clock=self.executor.clock,
            max_suspended=self.config.max_suspended_trials,
        )
        #: End-to-end data integrity (``config.verify_outputs``): seals a
        #: checksum on every data version at write time, verifies at
        #: consume time, repairs from replicas, escalates to lineage
        #: recompute.  ``None`` when verification is off (zero overhead).
        self.integrity: Optional[IntegrityManager] = None
        if self.config.verify_outputs:
            from repro.runtime import integrity as igr

            mode = (
                igr.MODE_SIMULATED
                if isinstance(self.executor, SimulatedExecutor)
                else igr.MODE_LOCAL
            )
            self.integrity = igr.IntegrityManager(
                mode,
                replication_factor=self.config.replication_factor,
                seed=getattr(self.failure_injector, "_seed", 0) or 0,
                log=self.resilience,
                clock=self.executor.clock,
            )
        self.graph.stream_completed = self.config.stream_completed
        self.sync_points: List[Tuple[int, List[int]]] = []
        self._started = False
        # ---- Crash-consistency layer (write-ahead journal + store) ----
        resume_path: Optional[Path] = None
        if resume_from is not None:
            resume_path = Path(resume_from)
            if resume_path.name == ckpt.JOURNAL_FILE:
                resume_path = resume_path.parent
        checkpoint_dir = (
            Path(self.config.checkpoint_dir)
            if self.config.checkpoint_dir is not None
            else resume_path
        )
        #: Study sessions: the solo runtime is study "", built and looked
        #: up like any ``repro serve`` tenant's (see runtime/sessions).
        self.sessions = StudySessions(self, checkpoint_dir, resume_path)
        # ---- Cross-trial reuse (content-addressed stage cache) ----
        #: One cache per runtime, shared by every study/tenant: content
        #: keys are namespace-free by design, so a stage one tenant
        #: computed is a verified hit for every other.  ``None`` when
        #: reuse is off (zero overhead).
        self.reuse: Optional[ReuseCache] = None
        if self.config.reuse_cache:
            if self.config.cache_dir is not None:
                cache_dir = Path(self.config.cache_dir)
            elif checkpoint_dir is not None:
                cache_dir = checkpoint_dir / "reuse"
            else:
                raise ValueError(
                    "RuntimeConfig.reuse_cache needs a home: set cache_dir, "
                    "or set checkpoint_dir (the cache then lives under "
                    "<checkpoint_dir>/reuse)"
                )
            self.reuse = ReuseCache(
                cache_dir,
                max_bytes=self.config.cache_max_bytes,
                integrity=self.integrity,
                log=self.resilience,
                clock=self.executor.clock,
            )
        #: Consumed published values leave driver memory; the cache holds
        #: them (see reuse.StageRelease).  Streaming frees whole tasks
        #: instead, and integrity keeps every sealed value.
        self.release: Optional[StageRelease] = None
        config = self.config
        if self.reuse is not None and not (
            config.stream_completed or config.verify_outputs
        ):
            self.release = StageRelease(self.reuse)
            self.graph.on_consumed = self.release.release
        #: Content-key canonicaliser for cacheable submissions.  Its own
        #: keyer (not the journal one): content keys touch no occurrence
        #: state and must exist even when journaling is off.
        self._content_keyer = ckpt.TaskKeyer()
        # Streaming mode: the graph frees fully-consumed completed tasks
        # and tells us to drop their registry entries, so memory tracks
        # the active frontier instead of the whole study.  Without a
        # reuse cache no task has a join entry to drop, so the access
        # processor is told directly.
        if self.config.stream_completed:
            self.graph.on_free = (
                self._on_task_freed if self.reuse is not None
                else self.access.release_task
            )

    def _make_executor(self) -> Executor:
        ex = self.config.executor
        if isinstance(ex, Executor):
            return ex
        if ex == "local":
            if self.config.backend == "workers":
                from repro.runtime.executor.workers import WorkerPoolExecutor

                return WorkerPoolExecutor(
                    max_parallel=self.config.max_parallel,
                    max_tasks_per_worker=self.config.max_tasks_per_worker,
                    poison_threshold=self.config.poison_threshold,
                )
            return LocalExecutor(max_parallel=self.config.max_parallel)
        if ex == "simulated":
            return SimulatedExecutor(
                duration_fn=self.config.duration_fn,
                execute_bodies=self.config.execute_bodies,
                default_dataset=self.config.default_dataset,
            )
        raise ValueError(f"unknown executor {ex!r}; use 'local' or 'simulated'")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "COMPSsRuntime":
        """Activate this runtime (make @task calls asynchronous)."""
        if self._started:
            raise RuntimeError("runtime already started")
        reset_invocation_counter()
        self.executor.bind(self)
        # Quarantine cool-downs tick in the executor's clock (wall or
        # virtual), not the host's.
        self.node_health.clock = self.executor.clock
        set_current(self)
        self._started = True
        if self.config.manage_gc:
            # The runtime's own structures are cycle-free and reclaimed
            # by reference counting; the cycle collector only re-scans
            # the growing live-task heap (~30% of dispatch cost at 100k
            # tasks).  Freeze the baseline heap now and the accumulating
            # task history periodically (gc_checkpoint); unfrozen in
            # stop().
            self._gc_managed = True
            gc.freeze()
        self.sessions.solo.open(self.cluster.name)
        _log.info("runtime started on %s", self.cluster.name)
        return self

    def gc_checkpoint(self) -> None:
        """Move the live heap out of the cycle collector's scan set.

        Called periodically by ``submit`` and the executors' wait loops
        (``gc.freeze`` is an O(1) generation-list splice, so frequent
        calls are fine).  Everything alive right now — dominated by the
        completed-task history — stops being re-scanned by every later
        generational sweep; reference counting still reclaims it the
        moment it dies.  No-op unless ``manage_gc`` froze at start.
        """
        if self._gc_managed:
            gc.freeze()

    def stop(self, wait: bool = True) -> None:
        """Deactivate; optionally waits for all outstanding tasks first."""
        if not self._started:
            return
        try:
            if wait:
                try:
                    self.barrier()
                except Exception as exc:  # noqa: BLE001 - cleanup must not re-raise
                    # A failed task surfaces where the user waits on it;
                    # re-raising from cleanup would mask/duplicate it.
                    _log.warning("outstanding task failed during stop(): %s", exc)
        finally:
            self.executor.shutdown()
            self.sessions.close_all()
            set_current(None)
            self._started = False
            if self._gc_managed:
                self._gc_managed = False
                gc.unfreeze()
            _log.info("runtime stopped")

    def __enter__(self) -> "COMPSsRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't block on a barrier if the body raised.
        self.stop(wait=exc_type is None)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        definition: TaskDefinition,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> Union[Future, Tuple[Future, ...], None]:
        """Create an invocation, detect dependencies, enqueue it.

        Returns the task's future(s): one :class:`Future`, a tuple for
        multi-return tasks, or None for ``returns=0`` tasks.
        """
        if not self._started:
            raise RuntimeError("runtime not started")
        invocation = TaskInvocation(definition, args, kwargs)
        # The submitting thread's study scope (the solo session outside
        # service mode) decides which namespace keys/journals/restores it.
        session = self.sessions.local.session
        invocation.study = session.study_id
        keyer, journal, recovery = (
            session.keyer, session.journal, session.recovery
        )
        # Cross-trial reuse: a content key this study already submitted
        # is joined onto that node (see _join_in_flight).  Only the first
        # submitter consults the disk cache, and BEFORE taking the
        # runtime lock — a verified read hashes the whole entry, and
        # other studies' submissions/completions must keep flowing
        # meanwhile.  Every outcome is safe under concurrency: a
        # verified value restores, anything else computes.
        reuse = self.reuse
        content_key: Optional[str] = None
        cached: Any = _CACHE_MISS
        if reuse is not None and definition.cacheable:
            content_key = self._content_keyer.content_key_for(invocation)
            if content_key is not None:
                joined = self._join_in_flight(session, content_key)
                if joined is not None:
                    return joined
                cached = reuse.acquire(content_key)
        # Released inputs of a task that will run are read back here,
        # before the lock, for the same reason.
        loaded: Optional[Dict[int, Any]] = None
        if self.release is not None and cached is _CACHE_MISS:
            inputs: List[Future] = []
            collect_futures(args, inputs)
            collect_futures(kwargs, inputs)
            if inputs:
                loaded = preload(self, list(map(_INVOCATION, inputs)))
        deps: Dict[int, TaskInvocation] = {}
        edge_labels: Dict[int, str] = {}
        restored: Any = ckpt._MISSING
        with self.lock:
            for value, spec in definition.accesses(args, kwargs):
                access_deps, labels = self.access.process_access(
                    invocation, value, spec
                )
                label = labels[0] if labels else ""
                for dep in access_deps:
                    deps[dep.task_id] = dep
                    if self.config.graph and label:
                        edge_labels[dep.task_id] = label
            # Each slot gets its data id now; its record waits for a reader.
            for i in range(definition.n_returns):
                self.access.register_output_future(Future(invocation, i))
            # Kept here: a task that is DONE at add may be freed (and let
            # go of its futures) before submit returns them.
            outputs = invocation.outputs
            if content_key is not None:
                # Later identical submissions of this study join this
                # node (a FAILED one is replaced by its retry here).
                session.joins[content_key] = invocation
            if keyer is not None:
                keyer.key_for(invocation)
                if recovery is not None:
                    restored = recovery.restored_result(invocation.task_key)
            cache_hit = False
            if restored is not ckpt._MISSING:
                # Journaled-complete with a stored output: restore instead
                # of executing (exactly-once for the replayed prefix).
                # If the reuse cache missed but the journal had the
                # value, publish the restored result so other trials hit.
                invocation.state = TaskState.DONE
                invocation.result = restored
                if content_key is not None and cached is _CACHE_MISS:
                    reuse.publish(content_key, restored)
            elif cached is not _CACHE_MISS:
                # Verified cross-trial cache hit: same restore machinery
                # as a journal replay — the graph accepts DONE-at-add
                # tasks and never dispatches them.
                cache_hit = True
                restored = cached
                invocation.state = TaskState.DONE
                invocation.result = restored
            dep_list = list(deps.values())
            if self.release is not None:
                if cache_hit:
                    self.release.track(invocation, True)
                elif restored is ckpt._MISSING:
                    # It will read its inputs: bring released ones back.
                    reacquire(self, dep_list, loaded)
            if self._locality is not None:
                self._locality.register_dependencies(invocation, dep_list)
            self.graph.add_task(invocation, dep_list, edge_labels)
            for dep in dep_list:
                if dep.state is TaskState.FAILED:
                    # The producer died before this consumer reached the
                    # graph (e.g. a join onto a node that then failed), so
                    # its fail_descendants pass missed it: fail it now
                    # rather than leave it pending forever.
                    fail_descendants(self, dep, self.executor.clock())
                    break
            if restored is not ckpt._MISSING:
                Executor.fan_out_result(
                    invocation, slot_futures(outputs), restored
                )
                # Restored outputs verified at spill load; seal them so
                # consumers can verify them like freshly-produced ones.
                if self.integrity is not None:
                    self.integrity.seal_outputs(self, invocation, restored)
                if not cache_hit:
                    # Cache hits already logged CACHE_HIT inside
                    # ReuseCache.acquire; a second record here would
                    # double-count hits vs. reuse.stats().
                    self.resilience.record(
                        self.executor.clock(),
                        CHECKPOINT_RESTORE,
                        invocation.label,
                        detail=f"key={invocation.task_key}",
                    )
            if journal is not None and restored is not ckpt._MISSING:
                journal.append(
                    ckpt.COMPLETED, invocation.task_key,
                    task=invocation.label,
                    **({"cached": True} if cache_hit else {"restored": True}),
                )
        # Attach to any open TaskGroup (selective barriers).
        record_submission(invocation)
        if invocation.task_id & 0xFFF == 0:
            # Periodically stop the cycle collector re-scanning the
            # accumulated submission history (O(1), see gc_checkpoint).
            self.gc_checkpoint()
        if restored is ckpt._MISSING:
            self.executor.notify_submitted(invocation)
        return outputs

    def _join_in_flight(self, session: StudySession, content_key: str):
        """The futures of ``session``'s live node for ``content_key``, if any.

        In-study sharing is a graph join: the later submitter gets the
        earlier node's futures and no task is created.  A stage's key
        digests its input futures by their producer's key, so joining
        one block makes the sibling's next block collide too and the
        whole shared prefix runs exactly once.  Never a FAILED node (its
        fail-soft retry builds a fresh one that siblings then join) and
        never a streaming-freed one.  The map is the study session's:
        tenants and processes share through the disk cache, so per-study
        fault isolation is untouched.
        """
        with self.lock:
            prior = session.joins.get(content_key)
            if prior is None or prior.state is TaskState.FAILED:
                return None
            outputs = prior.outputs
        self.reuse.note_join(content_key)
        # A joined node belongs to every TaskGroup open at this submit.
        record_submission(prior)
        return outputs

    # ------------------------------------------------------------------
    # Completion (called by executors)
    # ------------------------------------------------------------------
    def complete_task(self, task: TaskInvocation, result: Any) -> None:
        """Fan the result into futures and unlock successors."""
        outputs = task.outputs
        if type(outputs) is Future:
            outputs.set_result(result)
        else:
            Executor.fan_out_result(task, slot_futures(outputs), result)
        self.graph.mark_done(task)
        if self.access.any_invalidated:
            # Lineage recovery: a re-executed writer re-materialises its
            # data.  Skipped wholesale until a node loss ever happens.
            self.access.revalidate_versions_written_by(task)
        if self.integrity is not None:
            self.integrity.seal_outputs(self, task, result)
        # A study closed before its task finished journals nowhere.
        session = self.sessions.by_id.get(task.study)
        journal = session.journal if session is not None else None
        if journal is not None and task.task_key is not None:
            stored = False
            store = session.checkpoint_store
            if store is not None and store.cadence and store.should_spill():
                stored = store.save(task.task_key, result)
            journal.append(
                ckpt.COMPLETED, task.task_key,
                task.label, task.node or "", stored,
            )
        reuse = self.reuse
        if reuse is not None and task.content_key is not None:
            injector = self.failure_injector
            # Chaos: a lost publication is a writer that died before
            # publishing — no entry lands; later readers miss and recompute.
            published = False
            if injector is None or not injector.cache_publish_lost(task.label):
                published = reuse.publish(task.content_key, result)
                # Chaos: bit-rot the freshly-published entry in place (a
                # byte flipped, digest intact).  Detection happens at the
                # next hit's verify — never silently consumed.  Drawn on
                # every publication (the label's count keys the seeded
                # verdicts), applied only to an entry this call wrote.
                if (
                    injector is not None
                    and injector.cache_corrupts(task.label)
                    and published
                ):
                    reuse.corrupt_entry(task.content_key)
            if self.release is not None:
                # Only an entry this value wrote stands in for it.
                self.release.track(task, published)

    def _on_task_freed(self, task: TaskInvocation) -> None:
        """Streaming: drop registry entries of a graph-freed task."""
        self.access.release_task(task)
        if task.content_key is not None:
            session = self.sessions.by_id.get(task.study)
            if session is not None and session.joins.get(task.content_key) is task:
                session.joins.pop(task.content_key, None)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def wait_on(self, obj: Any) -> Any:
        """Resolve futures inside ``obj`` (scalar, list, tuple, dict, nested).

        Blocks (in real or virtual time) until the producing tasks are
        done, then returns ``obj`` with futures replaced by values.
        """
        futures: List[Future] = []
        collect_futures(obj, futures)
        # Distinct producers in task-id order, with no Python call per
        # future; a task's several slots sit side by side once sorted.
        tasks = sorted(map(_INVOCATION, futures), key=_TASK_ID)
        if any(map(operator.is_, tasks[1:], tasks)):
            tasks = [t for t, prev in zip(tasks, [None, *tasks]) if t is not prev]
        if tasks:
            if self.integrity is None:
                self.executor.wait_for(tasks)
                # Released values (only DONE ones can be) come back, read
                # before the lock; a lost one re-runs and is waited for.
                if self.release is not None:
                    loaded = preload(self, tasks)
                    if loaded:
                        with self.lock:
                            rerun = reacquire(self, tasks, loaded)
                        if rerun:
                            self.executor.notify_topology_change()
                            self.executor.wait_for(tasks)
            else:
                self.integrity.wait_verified(self, tasks)
            if self.config.graph:  # DOT export is their only reader
                self.sync_points.append(
                    (len(self.sync_points) + 1, [t.task_id for t in tasks])
                )
        return substitute(obj)

    def barrier(self) -> None:
        """Wait for every submitted task to complete."""
        unfinished = self.graph.unfinished()
        if unfinished:
            self.executor.wait_for(unfinished)

    # ------------------------------------------------------------------
    # Elasticity (paper §3: "grids, clusters, clouds")
    # ------------------------------------------------------------------
    def add_node(self, spec) -> None:
        """Grow the cluster mid-run; waiting tasks dispatch onto it."""
        self.pool.add_worker(spec)
        _log.info("node %s added to the pool", spec.name)
        # Kick the executor so queued work can use the new capacity (the
        # dispatch engine buffered the wake via the pool's listener).
        self.executor.notify_topology_change()

    def remove_node(self, name: str) -> None:
        """Stop placing new tasks on ``name`` (running ones finish)."""
        self.pool.remove_worker(name)
        _log.info("node %s drained from the pool", name)

    def drain_node(self, name: str, deadline_s: Optional[float] = None) -> None:
        """Gracefully drain ``name``: spill its resident data, finish its
        running tasks, accept no new placements, then retire it cleanly.

        At ``deadline_s`` (default ``config.drain_deadline_s``) an
        incomplete drain escalates to a node failure so lineage recovery
        takes over.
        """
        worker = self.pool.workers.get(name)
        if worker is None:
            raise ValueError(f"unknown node {name!r}")
        deadline = (
            deadline_s if deadline_s is not None
            else self.config.drain_deadline_s
        )
        if deadline <= 0:
            raise ValueError(f"drain deadline must be > 0, got {deadline}")
        if not worker.available:
            return  # already draining or down
        spilled = self.sessions.spill_node_data(name)
        self.pool.drain_worker(name)
        # Suspend-not-recompute: flag the node's resident preemptible
        # trials so they spill warm at their next checkpoint epoch and
        # resume elsewhere, instead of losing in-flight epochs to lineage
        # recompute when the deadline kills them.
        suspended = self.preemption.suspend_node(name, reason="drain")
        self.resilience.record(
            self.executor.clock(), NODE_DRAINING, node=name,
            detail=f"deadline_s={deadline:g} spilled={spilled}"
            + (f" suspended={suspended}" if suspended else ""),
        )
        self.executor.drain_node(name, deadline)

    def pause_study_dispatch(self, study_id: str) -> bool:
        """Stop placing a study's queued tasks (suspend-in-progress)."""
        with self.lock:
            return self.dispatcher.pause_study(study_id)

    def resume_study_dispatch(self, study_id: str) -> bool:
        """Re-enable a paused study's placements and wake the scheduler
        (a paused lane generates no completion events, so without the
        nudge its queued tasks would wait for an unrelated one)."""
        with self.lock:
            resumed = self.dispatcher.resume_study(study_id)
        if resumed:
            self.executor.notify_topology_change()
        return resumed

    def finish_drain(self, name: str) -> None:
        """Complete a drain: final spill pass, then retire the node.

        Called by the executor when the node's last running attempt
        finishes (or immediately for an idle node).
        """
        worker = self.pool.workers.get(name)
        if worker is None or not worker.draining:
            return
        spilled = self.sessions.spill_node_data(name)
        self.pool.retire_worker(name)
        self.resilience.record(
            self.executor.clock(), DRAIN_COMPLETE, node=name,
            detail=f"spilled={spilled}",
        )

    def recover_node(self, name: str) -> None:
        """Elastically rejoin a previously lost or retired node.

        The node comes back with all slots free, is re-seeded as a
        replica target for under-replicated data versions, and blocked
        (even starved) constraint classes are woken so queued tasks can
        place on it.
        """
        worker = self.pool.workers.get(name)
        if worker is None:
            raise ValueError(f"unknown node {name!r}")
        if worker.available or worker.draining:
            # Draining nodes may still have attempts in flight — resetting
            # their slots would corrupt the allocation accounting.  They
            # retire (or fail) first, and can rejoin afterwards.
            return
        self.pool.recover_node(name)
        reseeded = 0
        if self.integrity is not None:
            reseeded = self.integrity.reseed_node(name)
        self.resilience.record(
            self.executor.clock(), NODE_REJOINED, node=name,
            detail=f"reseeded={reseeded}" if reseeded else "",
        )
        self.executor.notify_topology_change()

    # ------------------------------------------------------------------
    # Introspection / artefacts
    # ------------------------------------------------------------------
    def analysis(self) -> TraceAnalysis:
        """Trace analysis over everything recorded so far."""
        from repro.runtime.tracing.analysis import TraceAnalysis

        return TraceAnalysis(self.tracer, self.resilience, self.dispatcher.stats)

    def render_graph(self) -> str:
        """DOT text of the current task graph (Fig. 3)."""
        from repro.runtime.dot import render_dot

        return render_dot(self.graph, self.sync_points)

    def export_graph(self, path) -> None:
        """Write the DOT graph to ``path``."""
        from repro.runtime.dot import export_dot

        export_dot(self.graph, path, self.sync_points)

    @property
    def virtual_time(self) -> Optional[float]:
        """Current virtual time for simulated runs (None for local)."""
        if isinstance(self.executor, SimulatedExecutor):
            return self.executor.now
        return None
