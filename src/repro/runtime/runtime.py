"""The COMPSs-equivalent runtime: ties graph, scheduler, executor together.

One :class:`COMPSsRuntime` instance corresponds to one ``runcompss``
session.  ``@task`` wrappers submit invocations here; the runtime detects
dependencies via the access processor, inserts the task into the graph,
and hands execution to the configured executor.  ``wait_on`` / ``barrier``
provide the synchronisation API of the paper's Listing 2.
"""

from __future__ import annotations

import gc
import inspect
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.runtime import checkpoint as ckpt
from repro.runtime import integrity as igr
from repro.runtime.access_processor import AccessProcessor
from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatch import DispatchEngine
from repro.runtime.dot import export_dot, render_dot
from repro.runtime.executor.base import Executor
from repro.runtime.executor.local import LocalExecutor
from repro.runtime.executor.simulated import SimulatedExecutor
from repro.runtime.future import Future, is_future
from repro.runtime.graph import TaskGraph
from repro.runtime.fault import StudyAbandonedError, UpstreamFailureError
from repro.pycompss_api.task_group import record_submission
from repro.runtime.preemption import PreemptionController
from repro.runtime.reuse import MISS as _CACHE_MISS, ReuseCache
from repro.runtime.resilience import (
    CHECKPOINT_RESTORE,
    DRAIN_COMPLETE,
    NODE_DRAINING,
    NODE_REJOINED,
    STUDY_FAILED,
    UPSTREAM_CANCELLED,
    NodeHealth,
    ResilienceLog,
    StragglerDetector,
)
from repro.runtime.scheduler import Scheduler, get_scheduler
from repro.runtime.scheduler.locality import LocalityScheduler
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    TaskState,
    reset_invocation_counter,
)
from repro.runtime.tracing.analysis import TraceAnalysis
from repro.runtime.tracing.extrae import TraceRecorder
from repro.util.logging_utils import get_logger

_log = get_logger("runtime")

_current: Optional["COMPSsRuntime"] = None
_current_lock = threading.Lock()

#: Exact types that can never create a dependency edge: not trackable by
#: the access processor and never a FILE path (strings stay out — they
#: can name files).  Exact-type check on purpose: an int subclass falls
#: through to the full binder, which handles it like before.
_DEP_FREE_TYPES = frozenset((int, float, complex, bool, type(None)))


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


class _StudyScope(threading.local):
    """Per-thread submission session; every thread starts in ``solo``."""

    def __init__(self, solo: ckpt.StudySession) -> None:
        self.session = solo


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
        self.integrity: Optional[igr.IntegrityManager] = None
        if self.config.verify_outputs:
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
        # Streaming mode: the graph frees fully-consumed completed tasks
        # and tells us to drop their registry entries, so memory tracks
        # the active frontier instead of the whole study.
        self.graph.stream_completed = self.config.stream_completed
        if self.config.stream_completed:
            self.graph.on_free = self._on_task_freed
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
        #: The solo runtime is study "": its keyer / journal / store /
        #: recovery bundle is built and looked up like any tenant's.
        self._solo = self._build_session("", checkpoint_dir, resume_path)
        # The solo session's members, read by callers and tests.
        self.keyer = self._solo.keyer
        self.journal = self._solo.journal
        self.checkpoint_store = self._solo.checkpoint_store
        self.recovery = self._solo.recovery
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
        #: study id ("" outside service mode) -> content key -> the
        #: study's live node for that key; see ``_join_in_flight``.
        self._joins: Dict[str, Dict[str, TaskInvocation]] = {}
        #: Content-key canonicaliser for cacheable submissions.  Its own
        #: keyer (not the journal one): content keys touch no occurrence
        #: state and must exist even when journaling is off.
        self._content_keyer = ckpt.TaskKeyer()
        # ---- Study sessions (the solo one, plus repro serve tenants) ----
        #: Open sessions keyed by study id; a task's ``study`` finds its
        #: journal and store here (none once its study has closed).
        self._sessions: Dict[str, ckpt.StudySession] = {"": self._solo}
        #: Thread-local submission scope: a study worker thread enters
        #: ``study_scope(session)`` so its submissions are keyed, journaled
        #: and restored against that study's namespace; every other
        #: thread submits into the solo session.
        self._scope = _StudyScope(self._solo)

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
        self._solo.open(self.cluster.name)
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
            for session in list(self._sessions.values()):
                session.close()
            self._sessions = {"": self._solo}
            self._joins.clear()
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
        invocation = TaskInvocation(definition=definition, args=args, kwargs=kwargs)
        # The submitting thread's study scope (the solo session outside
        # service mode) decides which namespace keys/journals/restores it.
        session = self._scope.session
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
                joined = self._join_in_flight(invocation.study, content_key)
                if joined is not None:
                    return joined
                cached = reuse.acquire(content_key)
        deps: Dict[int, TaskInvocation] = {}
        edge_labels: Dict[int, str] = {}
        restored: Any = ckpt._MISSING
        with self.lock:
            if not COMPSsRuntime._scan_free(definition, args, kwargs):
                for name, value, spec in self._iter_param_accesses(
                    definition, args, kwargs
                ):
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
            futures = self.access.futures_of(invocation.task_id)
            if content_key is not None:
                # Later identical submissions of this study join this
                # node (a FAILED one is replaced by its retry here).
                self._joins.setdefault(invocation.study, {})[
                    content_key
                ] = invocation
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
            if self._locality is not None:
                self._locality.register_dependencies(invocation, dep_list)
            self.graph.add_task(invocation, dep_list, edge_labels)
            for dep in dep_list:
                if dep.state is TaskState.FAILED:
                    # The producer died before this consumer reached the
                    # graph (e.g. a join onto a node that then failed), so
                    # its fail_descendants pass missed it: fail it now
                    # rather than leave it pending forever.
                    self.fail_descendants(dep, self.executor.clock())
                    break
            if restored is not ckpt._MISSING:
                Executor.fan_out_result(invocation, futures, restored)
                # Restored outputs verified at spill load; seal them so
                # consumers can verify them like freshly-produced ones.
                self._seal_outputs(invocation, restored)
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
        return self._handle(futures)

    @staticmethod
    def _handle(futures: Sequence[Future]):
        """What ``submit`` returns for a task's future slots."""
        if not futures:
            return None
        return futures[0] if len(futures) == 1 else tuple(futures)

    def _join_in_flight(self, study: str, content_key: str):
        """The futures of ``study``'s live node for ``content_key``, if any.

        In-study sharing is a graph join: the later submitter gets the
        earlier node's futures and no task is created.  A stage's key
        digests its input futures by their producer's key, so joining
        one block makes the sibling's next block collide too and the
        whole shared prefix runs exactly once.  Never a FAILED node (its
        fail-soft retry builds a fresh one that siblings then join) and
        never a streaming-freed one.  The map is per study: tenants and
        processes share through the disk cache, so per-study
        fault isolation is untouched.
        """
        with self.lock:
            prior = self._joins.get(study, {}).get(content_key)
            if prior is None or prior.state is TaskState.FAILED:
                return None
            futures = self.access.futures_of(prior.task_id)
        self.reuse.note_join(content_key)
        # A joined node belongs to every TaskGroup open at this submit.
        record_submission(prior)
        return self._handle(futures)

    @staticmethod
    def _iter_param_accesses(
        definition: TaskDefinition,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ):
        """Yield (param_name, value, spec) for every argument.

        Variadic ``*args`` parameters yield one access per element.
        """
        # Fast path for plain positional calls against plain signatures
        # (the overwhelmingly common case on the submission hot path):
        # ``sig.bind`` costs ~15µs per call just to pair names with
        # values, so pair them with ``zip`` instead.  Only taken when it
        # provably binds the same way: no kwargs, no variadic parameters,
        # and the positional count fills every required parameter.
        fast = getattr(definition, "_positional_fast", False)
        if fast is False:
            fast = COMPSsRuntime._positional_fast_info(definition)
            definition._positional_fast = fast
        if fast is not None and not kwargs:
            names, n_required = fast
            if n_required <= len(args) <= len(names):
                skippable = _DEP_FREE_TYPES
                for name, value in zip(names, args):
                    if type(value) in skippable:
                        # Numbers/None can never carry a dependency (not
                        # trackable, not a file path): skip the access
                        # processor round-trip entirely.
                        continue
                    yield from COMPSsRuntime._expand_value(
                        name, value, definition.spec_for(name)
                    )
                return
        try:
            # inspect.signature is ~10µs per call and identical for every
            # invocation of a definition: cache it on the definition.
            sig = getattr(definition, "_signature_cache", None)
            if sig is None:
                sig = inspect.signature(definition.func)
                definition._signature_cache = sig
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            # Signature mismatch surfaces when the body runs; fall back to
            # positional names so dependency detection still works.
            for i, value in enumerate(args):
                yield f"arg{i}", value, definition.spec_for(f"arg{i}")
            for key, value in kwargs.items():
                yield key, value, definition.spec_for(key)
            return
        for name, value in bound.arguments.items():
            param = sig.parameters[name]
            spec = definition.spec_for(name)
            if param.kind == inspect.Parameter.VAR_POSITIONAL:
                for item in value:
                    yield from COMPSsRuntime._expand_value(name, item, spec)
            elif param.kind == inspect.Parameter.VAR_KEYWORD:
                for key, item in value.items():
                    yield from COMPSsRuntime._expand_value(
                        key, item, definition.spec_for(key)
                    )
            else:
                yield from COMPSsRuntime._expand_value(name, value, spec)

    @staticmethod
    def _scan_free(
        definition: TaskDefinition,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> bool:
        """True when no argument can carry a dependency.

        A plainly-positional call whose every argument is a dep-free
        scalar needs no access scan at all — the generator in
        :meth:`_iter_param_accesses` would yield nothing, so ``submit``
        skips creating it (measurably cheaper at 100k+ tasks).
        """
        if kwargs:
            return False
        fast = getattr(definition, "_positional_fast", False)
        if fast is False:
            fast = COMPSsRuntime._positional_fast_info(definition)
            definition._positional_fast = fast
        if fast is None:
            return False
        names, n_required = fast
        if not (n_required <= len(args) <= len(names)):
            return False
        free = _DEP_FREE_TYPES
        for value in args:
            if type(value) not in free:
                return False
        return True

    @staticmethod
    def _positional_fast_info(definition: TaskDefinition):
        """``(names, n_required)`` when the signature is plainly positional.

        Returns ``None`` (fast path unusable) for signatures with
        variadic or keyword-only parameters.
        """
        sig = getattr(definition, "_signature_cache", None)
        if sig is None:
            try:
                sig = inspect.signature(definition.func)
            except (TypeError, ValueError):
                return None
            definition._signature_cache = sig
        names = []
        n_required = 0
        for name, param in sig.parameters.items():
            if param.kind not in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                return None
            names.append(name)
            if param.default is inspect.Parameter.empty:
                n_required += 1
        # Required params always precede defaults in these kinds, so
        # ``n_required <= len(args)`` means every required one is filled.
        return tuple(names), n_required

    @staticmethod
    def _expand_value(name: str, value: Any, spec):
        """Yield the value plus any futures nested in containers.

        A task receiving a list of futures (e.g. the paper's final
        ``plot(results)`` task) must depend on every producer.
        """
        yield name, value, spec
        if isinstance(value, (list, tuple, set)):
            items = value
        elif isinstance(value, dict):
            items = value.values()
        else:
            return
        from repro.pycompss_api.parameter import IN

        nested: List[Future] = []
        for item in items:
            COMPSsRuntime._collect_futures(item, nested)
        for fut in nested:
            yield name, fut, IN

    # ------------------------------------------------------------------
    # Completion (called by executors)
    # ------------------------------------------------------------------
    def complete_task(self, task: TaskInvocation, result: Any) -> None:
        """Fan the result into futures and unlock successors."""
        futures = self.access.futures_of(task.task_id)
        Executor.fan_out_result(task, futures, result)
        self.graph.mark_done(task)
        if self.access.any_invalidated:
            # Lineage recovery: a re-executed writer re-materialises its
            # data.  Skipped wholesale until a node loss ever happens.
            self.access.revalidate_versions_written_by(task)
        if self.integrity is not None:
            self._seal_outputs(task, result)
        # A study closed before its task finished journals nowhere.
        session = self._sessions.get(task.study)
        journal = session.journal if session is not None else None
        if journal is not None and task.task_key is not None:
            stored = False
            store = session.checkpoint_store
            if store is not None and store.should_spill():
                stored = store.save(task.task_key, result)
            journal.append(
                ckpt.COMPLETED, task.task_key,
                task=task.label, node=task.node or "", stored=stored,
            )
        reuse = self.reuse
        if reuse is not None and task.content_key is not None:
            injector = self.failure_injector
            # Chaos: a lost publication is a writer that died before
            # publishing — no entry lands; later readers miss and recompute.
            if injector is None or not injector.cache_publish_lost(task.label):
                reuse.publish(task.content_key, result)
                if injector is not None and injector.cache_corrupts(task.label):
                    # Chaos: bit-rot the freshly-published entry in place
                    # (payload flipped, sidecar intact).  Detection happens
                    # at the next hit's verify — never silently consumed.
                    reuse.corrupt_entry(task.content_key)

    def _on_task_freed(self, task: TaskInvocation) -> None:
        """Streaming: drop registry entries of a graph-freed task."""
        self.access.release_task(task.task_id)
        if task.content_key is not None:
            joins = self._joins.get(task.study)
            if joins is not None and joins.get(task.content_key) is task:
                del joins[task.content_key]

    def _seal_outputs(self, task: TaskInvocation, result: Any) -> None:
        """Checksum ``task``'s freshly-written data versions (integrity).

        Local mode snapshots the pickled return values; simulated mode
        derives digests from the modelled output size and registers the
        primary + replica copies.  After sealing, the failure injector
        gets a chance to silently corrupt the new copies (chaos testing)
        — detection happens later, at consume time.
        """
        integrity = self.integrity
        if integrity is None:
            return
        versions = self.access.versions_written_by(task)
        if not versions:
            return
        if integrity.mode == igr.MODE_SIMULATED:
            primary = task.node or ""
            integrity.seal_simulated(
                task,
                versions,
                primary,
                float(task.definition.output_size_mb),
                self._replica_nodes(primary),
            )
        else:
            futs = self.access.future_versions(task)
            if not futs:
                return
            if len(futs) == 1:
                items = [(futs[0][1], result)]
            else:
                try:
                    values = list(result)
                except TypeError:
                    values = []
                items = [
                    (version, values[i]) for i, version in futs if i < len(values)
                ]
            integrity.seal_local(task, items)
        injector = self.failure_injector
        if injector is not None:
            scope = injector.corruption_scope(task.label)
            if scope is not None:
                # Silent: no event at injection — the point of end-to-end
                # verification is that corruption surfaces at read time.
                integrity.corrupt(task, scope)

    def _replica_nodes(self, primary: str) -> List[str]:
        """Replica placements for a primary copy (simulated data plane).

        Only live (UP) workers receive replicas — a dead or draining node
        cannot accept the asynchronous copy.  Outputs written while the
        cluster is short-handed stay under-replicated until a node
        rejoins and :meth:`~repro.runtime.integrity.IntegrityManager.
        reseed_node` tops them back up.
        """
        extra = self.config.replication_factor - 1
        if extra <= 0:
            return []
        others = sorted(
            w.name
            for w in self.pool.workers.values()
            if w.available and w.name != primary
        )
        return others[:extra]

    def recompute_corrupt(self, writers, extra_consumers=()) -> List[str]:
        """Re-execute writers whose outputs have no intact copy left.

        Returns the labels of the invalidated data versions (see
        :func:`repro.runtime.integrity.recover_corrupt_versions`).
        """
        with self.lock:
            return igr.recover_corrupt_versions(self, writers, extra_consumers)

    def journal_task_event(
        self, task: TaskInvocation, kind: str, node: str = ""
    ) -> None:
        """Append a task record (executors journal failed attempts)."""
        session = self._sessions.get(task.study)
        journal = session.journal if session is not None else None
        if journal is None or task.task_key is None:
            return
        journal.append(
            kind, task.task_key, task=task.label, node=node or (task.node or "")
        )

    def fail_descendants(
        self, task: TaskInvocation, now: float
    ) -> List[TaskInvocation]:
        """Cancel every unfinished transitive consumer of a dead task.

        Called by the executors when ``task`` fails *terminally* (retry
        budget exhausted, or reaped by the starvation watchdog).  Its
        consumers can never become ready — without this they would sit
        in SUBMITTED forever and ``wait_for`` would hang (simulated: a
        "simulation stalled" crash) instead of surfacing the root
        failure.  Each victim fails with :class:`UpstreamFailureError`
        chained to the producer's error.
        """
        cause = task.error or RuntimeError("unknown")
        victims: List[TaskInvocation] = []
        with self.lock:
            for dep in self.graph.descendants(task):
                if dep.state in (TaskState.DONE, TaskState.FAILED):
                    continue
                exc = UpstreamFailureError(dep.label, task.label, cause)
                dep.add_history(f"cancelled: {exc}")
                dep.state = TaskState.FAILED
                dep.error = exc
                self.journal_task_event(dep, ckpt.FAILED, node="")
                self.resilience.record(
                    now, UPSTREAM_CANCELLED, dep.label, "",
                    detail=f"producer {task.label} failed terminally",
                )
                victims.append(dep)
        return victims

    # ------------------------------------------------------------------
    # Crash consistency / lineage recovery
    # ------------------------------------------------------------------
    def recover_lost_data(self, node: str) -> List[str]:
        """Node loss: invalidate resident data, re-run the minimal lineage.

        Returns the labels of the destroyed data versions (see
        :func:`repro.runtime.checkpoint.recover_lost_data`).
        """
        with self.lock:
            return ckpt.recover_lost_data(self, node)

    def resume_stats(self) -> Optional[Dict[str, Any]]:
        """Journal-replay summary for resumed sessions (else ``None``).

        In service mode the calling thread's study scope selects which
        study's recovery is summarised.
        """
        recovery = self._scope.session.recovery
        if recovery is None:
            return None
        stats = recovery.summary()
        stats["restored_this_session"] = recovery.restored
        return stats

    # ------------------------------------------------------------------
    # Multi-tenant study sessions (service mode)
    # ------------------------------------------------------------------
    def open_study(
        self,
        study_id: str,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        *,
        priority: int = 0,
        weight: float = 1.0,
        tenant: str = "",
        max_tenant_slots: Optional[int] = None,
    ) -> ckpt.StudySession:
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
        if study_id in self._sessions:
            raise ValueError(f"study {study_id!r} is already open")
        ckpt_path = Path(checkpoint_dir) if checkpoint_dir is not None else None
        # A journal from a previous daemon life is replayed so the
        # completed prefix restores instead of re-executing.
        replay = (
            ckpt_path
            if ckpt_path is not None and (ckpt_path / ckpt.JOURNAL_FILE).exists()
            else None
        )
        session = self._build_session(study_id, ckpt_path, replay, tenant=tenant)
        session.open(self.cluster.name)
        with self.lock:
            self._sessions[study_id] = session
            # Under the runtime lock: the dispatch engine's share table is
            # also read by scheduling rounds, which run under this lock.
            self.dispatcher.register_study(
                study_id, priority=priority, weight=weight,
                tenant=tenant, max_tenant_slots=max_tenant_slots,
            )
        return session

    def _build_session(
        self,
        study_id: str,
        checkpoint_dir: Optional[Path],
        replay_dir: Optional[Path],
        tenant: str = "",
    ) -> ckpt.StudySession:
        """The one construction of a keyer / journal / store / recovery
        bundle: the solo runtime's (study "") and every tenant study's.

        ``replay_dir`` holds a previous life's journal to restore from;
        without a ``checkpoint_dir`` nothing is keyed or journaled.
        """
        recovery = (
            ckpt.RecoveryManager(replay_dir, log=self.resilience)
            if replay_dir is not None
            else None
        )
        if checkpoint_dir is None:
            return ckpt.StudySession(study_id, recovery=recovery, tenant=tenant)
        return ckpt.StudySession(
            study_id,
            keyer=ckpt.TaskKeyer(namespace=study_id),
            journal=ckpt.WriteAheadJournal(
                checkpoint_dir / ckpt.JOURNAL_FILE,
                fsync=self.config.journal_fsync,
                buffer_records=self.config.journal_buffer_records,
            ),
            checkpoint_store=ckpt.CheckpointStore(
                checkpoint_dir / ckpt.OUTPUTS_DIR,
                cadence=self.config.checkpoint_every,
            ),
            recovery=recovery,
            tenant=tenant,
        )

    def close_study(self, study_id: str) -> None:
        """Close a study session: flush its journal, drop its share lane."""
        if not study_id:
            raise ValueError("the solo session closes with the runtime")
        with self.lock:
            session = self._sessions.pop(study_id, None)
            self._joins.pop(study_id, None)
            self.dispatcher.unregister_study(study_id)
        if session is not None:
            session.close()

    def checkpoint_store_for(
        self, task: TaskInvocation
    ) -> Optional[ckpt.CheckpointStore]:
        """The spill store of ``task``'s study (None once it closed)."""
        session = self._sessions.get(task.study)
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
        store = self._scope.session.checkpoint_store
        if store is None:
            return None
        return store.directory.parent / "preempt"

    @contextmanager
    def study_scope(self, session: ckpt.StudySession) -> Iterator[None]:
        """Route this thread's submissions through ``session``.

        Worker threads of the service daemon wrap each study's runner in
        this scope; everything the study submits is keyed, journaled and
        restored against the study's namespace, while other threads stay
        in theirs (the solo session unless scoped).
        """
        scope = self._scope
        previous, scope.session = scope.session, session
        try:
            yield
        finally:
            scope.session = previous

    def abandon_study(
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
        now = self.executor.clock()
        victims: List[TaskInvocation] = []
        with self.lock:
            for task in self.graph.tasks():
                if task.study != study_id:
                    continue
                if task.state in (TaskState.DONE, TaskState.FAILED):
                    continue
                exc = StudyAbandonedError(task.label, study_id, reason)
                task.add_history(f"study abandoned: {exc}")
                task.state = TaskState.FAILED
                task.error = exc
                self.journal_task_event(task, ckpt.FAILED, node="")
                victims.append(task)
            self.dispatcher.purge(victims)
        self.resilience.record(
            now, kind, detail=f"study={study_id} reason={reason} "
            f"cancelled={len(victims)}",
        )
        # Wake any waiter blocked on the study's tasks so the study's
        # worker thread observes the terminal failures promptly.
        self.executor.notify_task_resolutions()
        return len(victims)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def wait_on(self, obj: Any) -> Any:
        """Resolve futures inside ``obj`` (scalar, list, tuple, dict, nested).

        Blocks (in real or virtual time) until the producing tasks are
        done, then returns ``obj`` with futures replaced by values.
        """
        futures: List[Future] = []
        self._collect_futures(obj, futures)
        tasks = sorted({f.invocation for f in futures}, key=lambda t: t.task_id)
        if tasks:
            self._wait_verified(tasks)
            if self.config.graph:  # DOT export is their only reader
                self.sync_points.append(
                    (len(self.sync_points) + 1, [t.task_id for t in tasks])
                )
        return self._substitute(obj)

    def _wait_verified(self, tasks: List[TaskInvocation]) -> None:
        """Wait for ``tasks``, then verify what the driver is about to read.

        A corrupt output that cannot be repaired from a replica sends its
        writer back through the lineage machinery and the wait repeats;
        the loop is bounded so persistent corruption (e.g. a deterministic
        injector that re-corrupts every attempt) fails loudly instead of
        spinning forever.
        """
        self.executor.wait_for(tasks)
        if self.integrity is None:
            return
        for _ in range(25):
            bad: List[TaskInvocation] = []
            with self.lock:
                for task in tasks:
                    versions = self.access.versions_written_by(task)
                    if not versions:
                        continue
                    outcome = self.integrity.verify_writer(task, versions)
                    if not outcome.ok:
                        bad.append(task)
                if bad:
                    igr.recover_corrupt_versions(self, bad)
            if not bad:
                return
            self.executor.notify_topology_change()
            self.executor.wait_for(tasks)
        raise igr.IntegrityError(
            "corrupt outputs persisted after 25 repair rounds: "
            + ", ".join(t.label for t in bad)
        )

    def barrier(self) -> None:
        """Wait for every submitted task to complete."""
        unfinished = self.graph.unfinished()
        if unfinished:
            self.executor.wait_for(unfinished)

    @classmethod
    def _collect_futures(cls, obj: Any, out: List[Future]) -> None:
        if is_future(obj):
            out.append(obj)
        elif isinstance(obj, (list, tuple, set)):
            for item in obj:
                cls._collect_futures(item, out)
        elif isinstance(obj, dict):
            for item in obj.values():
                cls._collect_futures(item, out)

    @classmethod
    def _substitute(cls, obj: Any) -> Any:
        if is_future(obj):
            return obj.result()
        if isinstance(obj, list):
            return [cls._substitute(i) for i in obj]
        if isinstance(obj, tuple):
            return tuple(cls._substitute(i) for i in obj)
        if isinstance(obj, set):
            return {cls._substitute(i) for i in obj}
        if isinstance(obj, dict):
            return {k: cls._substitute(v) for k, v in obj.items()}
        return obj

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
        spilled = self._spill_node_data(name)
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
        spilled = self._spill_node_data(name)
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

    def _spill_node_data(self, node: str) -> int:
        """Persist data resident on ``node`` before it goes away.

        Two mechanisms, both best-effort: every DONE output produced on
        the node is spilled to the checkpoint store (when configured, and
        regardless of the spill cadence), and the simulated integrity
        manager copies the node's only-good copies onto other up nodes.
        Returns the number of task outputs protected.
        """
        protected = 0
        with self.lock:
            for task in self.graph.tasks():
                # Only a journaled (keyed) task has a store to spill to.
                if (
                    task.task_key is None
                    or task.state != TaskState.DONE
                    or task.node != node
                ):
                    continue
                store = self.checkpoint_store_for(task)
                if store is not None and store.save(task.task_key, task.result):
                    protected += 1
            if self.integrity is not None:
                targets = [
                    w.name
                    for w in self.pool.workers.values()
                    if w.available and w.name != node
                ]
                protected += self.integrity.evacuate(node, targets)
        return protected

    # ------------------------------------------------------------------
    # Introspection / artefacts
    # ------------------------------------------------------------------
    def analysis(self) -> TraceAnalysis:
        """Trace analysis over everything recorded so far."""
        return TraceAnalysis(self.tracer, self.resilience, self.dispatcher.stats)

    def render_graph(self) -> str:
        """DOT text of the current task graph (Fig. 3)."""
        return render_dot(self.graph, self.sync_points)

    def export_graph(self, path) -> None:
        """Write the DOT graph to ``path``."""
        export_dot(self.graph, path, self.sync_points)

    @property
    def virtual_time(self) -> Optional[float]:
        """Current virtual time for simulated runs (None for local)."""
        if isinstance(self.executor, SimulatedExecutor):
            return self.executor.now
        return None
