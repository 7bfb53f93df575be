"""Real local execution on threads (optionally process-backed bodies).

Tasks run eagerly as resources free up, exactly like the COMPSs worker:
the dispatch loop re-runs on every submission and completion, so "the
next task is assigned a computational unit as soon as one is available"
(paper §6.1).

Thread backend: task bodies run in a thread pool, which overlaps
sleeping, I/O-bound and long-BLAS-call bodies but not CPU-bound Python:
the zoo's small-batch training spends most of its time in interpreter
code between short numpy calls, so two training threads contend for the
GIL instead of overlapping.  The benchmark suite measures it
(benchmarks/suite/README.md): on the 27-config real-training grid with
2 slots, ``grid27_train_threads`` takes 7.0 s against 2.9 s for a plain
serial loop and 1.5 s on ``backend="workers"``, with summed body time
inflated x4.2-4.4 (``local.body_inflation``).  Use ``backend="workers"``
for CPU-bound training; threads remain the default because they need no
picklable bodies and start instantly.  Process backend: bodies
are shipped to a :class:`concurrent.futures.ProcessPoolExecutor` (they
must be picklable, i.e. module-level functions with picklable args); a
worker crash breaks *that attempt only* — the broken pool is rebuilt and
the attempt becomes a retryable
:class:`~repro.runtime.fault.WorkerCrashError`.

Resilience: with ``task_timeout_s`` set, bodies run behind a wall-clock
deadline — a hung body becomes a retryable
:class:`~repro.runtime.fault.TaskTimeoutError`.  On the *thread* backend
the abandoned body keeps its thread until it returns (CPython threads
cannot be killed), so the deadline frees the task but not the OS
resources; the supervised worker pool
(:class:`~repro.runtime.executor.workers.WorkerPoolExecutor`,
``backend="workers"``) lifts that limitation by hard-killing the worker
process at the deadline.  With ``speculation_multiplier`` set, a
watchdog thread backs up straggling tasks on another node and the first
finisher wins.  Retries honour the policy's exponential backoff, and
every attempt outcome feeds the runtime's node-health tracker.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.runtime import checkpoint as ckpt
from repro.runtime import integrity as igr
from repro.runtime import resilience as rsl
from repro.runtime.executor.base import Executor
from repro.runtime.fault import (
    FaultAction,
    ResourceStarvationError,
    TaskFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.resources import Allocation
from repro.runtime.scheduler.base import Assignment, release_assignment
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.runtime.tracing.extrae import TaskRecord
from repro.util.logging_utils import get_logger
from repro.util.validation import check_one_of, check_positive

_log = get_logger("runtime.executor.local")


class _LocalAttempt:
    """Bookkeeping for one in-flight attempt (primary or backup)."""

    __slots__ = ("assignment", "start", "speculative")

    def __init__(self, assignment: Assignment, start: float, speculative: bool):
        self.assignment = assignment
        self.start = start
        self.speculative = speculative


class LocalExecutor(Executor):
    """Threaded executor over the runtime's resource pool.

    Parameters
    ----------
    backend:
        ``"threads"`` (default) or ``"processes"`` for the task bodies.
    max_parallel:
        Cap on simultaneously-running bodies (defaults to the pool's
        task-usable CPU count, min 1).
    """

    #: Watchdog poll interval for straggler detection (seconds).
    SPECULATION_POLL_S = 0.02

    def __init__(self, backend: str = "threads", max_parallel: Optional[int] = None):
        super().__init__()
        check_one_of("backend", backend, ["threads", "processes"])
        self.backend = backend
        self.max_parallel = max_parallel
        self._procs_lock = threading.Lock()
        self._procs_workers = 1
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._threads: Optional[ThreadPoolExecutor] = None
        self._procs: Optional[ProcessPoolExecutor] = None
        #: Deadline-guarded bodies run here (created when timeouts are on).
        self._bodies: Optional[ThreadPoolExecutor] = None
        self._watchdog: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        #: task_id -> attempts currently in flight (two while a backup races).
        self._active: Dict[int, List[_LocalAttempt]] = {}
        #: node -> armed drain-deadline timer (graceful drain in progress).
        self._draining: Dict[str, threading.Timer] = {}
        #: Bumped (under the lock) whenever a task resolves; lets
        #: ``wait_for`` skip rescans on pure-timeout wake-ups.
        self._resolutions = 0
        self._epoch = time.perf_counter()
        self._shutdown = False

    # ------------------------------------------------------------------
    def bind(self, runtime) -> None:
        super().bind(runtime)
        # Share the runtime's lock so graph mutations from submit() (main
        # thread) and dispatch/completion (worker threads) are serialised.
        self._lock = runtime.lock
        self._done_cond = threading.Condition(self._lock)
        n = self.max_parallel or max(1, runtime.pool.total_task_cpus)
        check_positive("max_parallel", n)
        self._threads = ThreadPoolExecutor(
            max_workers=n, thread_name_prefix="repro-worker"
        )
        self._bind_backend(n)
        if runtime.straggler is not None:
            self._watchdog = threading.Thread(
                target=self._speculation_loop,
                name="repro-speculation",
                daemon=True,
            )
            self._watchdog.start()

    def _bind_backend(self, n: int) -> None:
        """Create the body-execution backend (hook for subclasses)."""
        assert self.runtime is not None
        if self.backend == "processes":
            self._procs_workers = n
            self._procs = ProcessPoolExecutor(max_workers=n)
        if self.runtime.config.task_timeout_s is not None and self._procs is None:
            # Bodies get their own pool so a worker thread can abandon a
            # hung body at the deadline; a few spare slots absorb
            # abandoned-but-still-running bodies.
            self._bodies = ThreadPoolExecutor(
                max_workers=n + 4, thread_name_prefix="repro-body"
            )

    def _rebuild_procs(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken process pool so one crash poisons one attempt.

        A worker crash marks the whole ``ProcessPoolExecutor`` broken:
        every later ``submit`` raises :class:`BrokenProcessPool`.  All
        concurrently-failed attempts race here; the identity check makes
        exactly one of them rebuild.
        """
        with self._procs_lock:
            if self._procs is broken:
                broken.shutdown(wait=False)
                self._procs = ProcessPoolExecutor(max_workers=self._procs_workers)
                _log.warning(
                    "process pool broken by a worker crash; rebuilt with %d workers",
                    self._procs_workers,
                )

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def clock(self) -> float:
        return self._now()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def notify_submitted(self, task: TaskInvocation) -> None:
        self._dispatch()

    def notify_topology_change(self) -> None:
        """Run a scheduling round now (node added / drained / rejoined)."""
        self._dispatch()

    def notify_task_resolutions(self) -> None:
        """Wake blocked waiters after out-of-band terminal transitions."""
        if self._done_cond is None:
            return
        with self._done_cond:
            self._resolutions += 1
            self._done_cond.notify_all()

    def _dispatch(self) -> None:
        """Incremental scheduling round (thread-safe).

        Newly-ready tasks join the dispatch engine's per-constraint-class
        queues; the engine probes only class heads and skips classes
        whose capacity hasn't changed since they last failed to place.
        Releases from completion threads are buffered by the engine and
        drained at the start of the round.  Each round also completes any
        drain whose node went idle and reaps starved-out classes.
        """
        assert self.runtime is not None and self._threads is not None
        self._check_drains()
        self._reap_starved()
        with self._lock:
            if self._shutdown:
                return
            runtime = self.runtime
            runtime.dispatcher.ingest(runtime.graph.pop_ready())
            for assignment in runtime.dispatcher.schedule_round():
                assignment.task.state = TaskState.RUNNING
                self._threads.submit(self._run_attempt, assignment)

    # ------------------------------------------------------------------
    # Graceful drain / starvation watchdog
    # ------------------------------------------------------------------
    def node_busy(self, node: str) -> bool:
        with self._lock:
            return any(
                al.node == node
                for attempts in self._active.values()
                for attempt in attempts
                for al in attempt.assignment.all_allocations
            )

    def drain_node(self, node: str, deadline_s: float) -> None:
        """Honour a drain: watch for the last attempt, arm the deadline."""
        assert self.runtime is not None
        if not self.node_busy(node):
            self.runtime.finish_drain(node)
            self._dispatch()
            return
        with self._lock:
            previous = self._draining.pop(node, None)
            if previous is not None:
                previous.cancel()
            timer = threading.Timer(
                float(deadline_s), self._drain_deadline, args=(node,)
            )
            timer.daemon = True
            self._draining[node] = timer
            timer.start()

    def _check_drains(self) -> None:
        """Complete any drain whose node has gone idle."""
        assert self.runtime is not None
        with self._lock:
            if not self._draining:
                return
            idle = [n for n in sorted(self._draining) if not self.node_busy(n)]
            for node in idle:
                self._draining.pop(node).cancel()
        for node in idle:
            self.runtime.finish_drain(node)

    def _drain_deadline(self, node: str) -> None:
        """The drain window closed (timer thread); force the node out."""
        assert self.runtime is not None
        runtime = self.runtime
        with self._lock:
            if self._shutdown or node not in self._draining:
                return
            del self._draining[node]
            worker = runtime.pool.workers.get(node)
            if worker is None or not worker.draining:
                return
            busy = self.node_busy(node)
        if not busy:
            runtime.finish_drain(node)
            self._dispatch()
            return
        # Local attempts run in this process, so their in-flight results
        # stay valid after the node is forced out — no data is destroyed;
        # the slots are simply gone for future placements.
        flagged = runtime.preemption.suspended_count()
        runtime.resilience.record(
            self._now(), rsl.DRAIN_DEADLINE, "", node,
            detail="attempts still running; node forcibly retired"
            + (f"; {flagged} suspend-flagged trial(s) warm-resumable"
               if flagged else ""),
        )
        runtime.pool.retire_worker(node)
        self._dispatch()

    def _reap_starved(self) -> None:
        """Fail every task whose constraint class starved past the timeout."""
        assert self.runtime is not None
        runtime = self.runtime
        deadline = runtime.dispatcher.next_starvation_deadline()
        if deadline is None or self._now() < deadline:
            return
        with self._lock:
            victims = runtime.dispatcher.reap_starved()
            for task, waited in victims:
                names = ", ".join(
                    impl.constraint.describe()
                    for impl in task.definition.all_candidates()
                )
                exc = ResourceStarvationError(task.label, names, waited)
                task.attempt_history.append(f"starved for {waited:g}s: {exc}")
                task.state = TaskState.FAILED
                task.error = exc
                runtime.journal_task_event(task, ckpt.FAILED, node="")
                runtime.fail_descendants(task, self._now())
            if victims:
                self._resolutions += 1
                self._done_cond.notify_all()

    # ------------------------------------------------------------------
    # Attempt execution
    # ------------------------------------------------------------------
    def _run_attempt(self, assignment: Assignment, speculative: bool = False) -> None:
        assert self.runtime is not None
        task = assignment.task
        alloc = assignment.allocation
        start = self._now()
        attempt = _LocalAttempt(assignment, start, speculative)
        with self._lock:
            if task.state in (TaskState.DONE, TaskState.FAILED):
                # The task resolved before this (backup) attempt started.
                release_assignment(self.runtime.pool, assignment)
                return
            self._active.setdefault(task.task_id, []).append(attempt)
            if not speculative:
                task.node = alloc.node
        if self.runtime.tracer.enabled:
            self.runtime.tracer.record_event(
                start, "task_start", task.label, alloc.node
            )
        try:
            self._verify_inputs(task, speculative)
            result = self._execute_body(task, assignment, alloc, speculative)
        except BaseException as exc:  # noqa: BLE001 - any body error goes to fault handling
            self._on_failure(assignment, exc, start, attempt)
            return
        self._on_success(assignment, result, start, attempt)

    def _verify_inputs(self, task: TaskInvocation, speculative: bool) -> None:
        """End-to-end integrity gate: check every input before the body runs.

        A checksum mismatch on a producer's snapshot repairs in place
        from the driver's live value; an input with no intact copy left
        raises a retryable :class:`~repro.runtime.integrity.IntegrityError`
        so the attempt goes through the normal fault path.  Speculative
        backups skip the gate — they race an attempt that already passed
        it, on the same in-memory values.
        """
        assert self.runtime is not None
        integrity = self.runtime.integrity
        if integrity is None or speculative:
            return
        with self._lock:
            for producer in self.runtime.graph.predecessors(task):
                versions = self.runtime.access.versions_written_by(producer)
                if not versions:
                    continue
                outcome = integrity.verify_writer(
                    producer, versions, consumer_label=task.label
                )
                if not outcome.ok:
                    raise igr.IntegrityError(
                        f"input {','.join(outcome.corrupt)} of {task.label} "
                        "is corrupt with no intact copy"
                    )

    def _execute_body(
        self,
        task: TaskInvocation,
        assignment: Assignment,
        alloc: Allocation,
        speculative: bool = False,
    ):
        assert self.runtime is not None
        injector = self.runtime.failure_injector
        # Injected failures/hangs/slowdowns hit primary attempts only: a
        # speculative backup is a clean re-execution on another node.
        if (
            injector is not None
            and not speculative
            and injector.should_fail(task.label, task.attempts)
        ):
            raise RuntimeError(
                f"injected failure for {task.label} attempt {task.attempts}"
            )
        hang = (
            injector is not None
            and not speculative
            and injector.should_hang(task.label, task.attempts)
        )
        slow = (
            injector.slow_factor(task.label)
            if injector is not None and not speculative
            else 1.0
        )
        args, kwargs = self.resolve_arguments(task)
        func = assignment.implementation.func
        timeout = self.runtime.config.task_timeout_s

        def body():
            if hang:
                # "Hung" until the deadline abandons us; released at
                # shutdown so the thread pool can drain.
                self._stop_event.wait()
                raise TaskTimeoutError(
                    f"hung attempt of {task.label} released at shutdown"
                )
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            if slow > 1.0:
                time.sleep((slow - 1.0) * (time.perf_counter() - t0))
            return result

        if self._procs is not None:
            procs = self._procs
            try:
                future = procs.submit(func, *args, **kwargs)
                return future.result(timeout=timeout)
            except BrokenProcessPool as exc:
                # One crashed worker poisons the whole pool: rebuild it
                # and convert this attempt into a retryable crash so the
                # next submission (and this task's retry) get a live pool.
                self._rebuild_procs(procs)
                self.runtime.resilience.record(
                    self._now(), rsl.WORKER_CRASH, task.label, alloc.node,
                    detail="process pool broken; rebuilt",
                )
                raise WorkerCrashError(
                    task.label, "process pool worker died"
                ) from exc
            except FuturesTimeoutError:
                raise TaskTimeoutError(
                    f"task {task.label} exceeded its {timeout}s deadline "
                    f"on {alloc.node}"
                ) from None
        if timeout is not None:
            assert self._bodies is not None
            future = self._bodies.submit(body)
        else:
            return body()
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            raise TaskTimeoutError(
                f"task {task.label} exceeded its {timeout}s deadline "
                f"on {alloc.node}"
            ) from None

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def _detach(self, task_id: int, attempt: _LocalAttempt) -> None:
        attempts = self._active.get(task_id)
        if attempts and attempt in attempts:
            attempts.remove(attempt)
            if not attempts:
                del self._active[task_id]

    def _on_success(
        self, assignment: Assignment, result, start: float, attempt: _LocalAttempt
    ) -> None:
        assert self.runtime is not None
        task = assignment.task
        end = self._now()
        node = assignment.allocation.node
        with self._lock:
            self._detach(task.task_id, attempt)
            won = task.state not in (TaskState.DONE, TaskState.FAILED)
            if won:
                task.result = result
                task.start_time, task.end_time = start, end
                task.node = node
                if attempt.speculative:
                    self.runtime.resilience.record(
                        end, rsl.SPECULATION_WON, task.label, node,
                        detail=f"backup finished first after {end - start:.2f}s",
                    )
                self.runtime.complete_task(task, result)
                self._resolutions += 1
                self._done_cond.notify_all()
        if not won:
            # A faster attempt already resolved the task; discard quietly.
            release_assignment(self.runtime.pool, assignment)
            self.runtime.resilience.record(
                end, rsl.SPECULATION_CANCELLED, task.label, node,
                detail="slower attempt discarded",
            )
            return
        self._record(task, assignment, start, end, success=True)
        release_assignment(self.runtime.pool, assignment)
        self.runtime.node_health.record_success(node)
        if self.runtime.straggler is not None:
            self.runtime.straggler.observe(task.definition.name, end - start)
        self._dispatch()

    def _decide_action(self, task: TaskInvocation, exc: BaseException) -> FaultAction:
        """Retry decision for one failed attempt (hook for subclasses).

        The worker-pool backend overrides this to make
        :class:`~repro.runtime.fault.PoisonTaskError` terminal.
        """
        return self.runtime.retry_policy.decide(task)

    def _on_failure(
        self,
        assignment: Assignment,
        exc: BaseException,
        start: float,
        attempt: _LocalAttempt,
    ) -> None:
        assert self.runtime is not None
        task = assignment.task
        end = self._now()
        node = assignment.allocation.node
        task.attempts += 1
        self._record(task, assignment, start, end, success=False)
        if isinstance(exc, TaskTimeoutError):
            self.runtime.resilience.record(
                end, rsl.TIMEOUT, task.label, node,
                detail=f"deadline {self.runtime.config.task_timeout_s}s",
            )
            self.runtime.node_health.record_failure(node, kind="timeout")
        else:
            self.runtime.node_health.record_failure(node)
        with self._lock:
            self._detach(task.task_id, attempt)
            racing = (
                task.state in (TaskState.DONE, TaskState.FAILED)
                or bool(self._active.get(task.task_id))
            )
        if racing:
            # Another attempt already resolved (or is still racing) this
            # task: this failure must not consume the retry budget's
            # terminal decision.
            release_assignment(self.runtime.pool, assignment)
            task.attempt_history.append(
                f"attempt {task.attempts} on {node}: {exc!r} -> "
                "another attempt racing"
            )
            return
        action = self._decide_action(task, exc)
        task.attempt_history.append(
            f"attempt {task.attempts} on {node}: {exc!r} -> {action.value}"
        )
        _log.info("task %s failed (attempt %d): %s -> %s",
                  task.label, task.attempts, exc, action.value)
        if action != FaultAction.GIVE_UP:
            delay = self.runtime.retry_policy.backoff_delay(
                task.label, task.attempts
            )
            if delay > 0.0:
                self.runtime.resilience.record(
                    end, rsl.BACKOFF_WAIT, task.label, node,
                    detail=f"{delay:.2f}s before {action.value}",
                )
                time.sleep(delay)
        if action == FaultAction.RETRY_SAME_NODE:
            # Keep the allocation; rerun in place (paper: "tries to start
            # the same task in the same node").
            retry_start = self._now()
            retry_attempt = _LocalAttempt(assignment, retry_start, attempt.speculative)
            with self._lock:
                self._active.setdefault(task.task_id, []).append(retry_attempt)
            try:
                self._verify_inputs(task, attempt.speculative)
                result = self._execute_body(
                    task, assignment, assignment.allocation, attempt.speculative
                )
            except BaseException as exc2:  # noqa: BLE001
                self._on_failure(assignment, exc2, retry_start, retry_attempt)
                return
            self._on_success(assignment, result, retry_start, retry_attempt)
            return
        release_assignment(self.runtime.pool, assignment)
        if action == FaultAction.RESUBMIT_OTHER_NODE:
            with self._lock:
                task.failed_nodes.append(node)
                task.state = TaskState.READY
                self.runtime.graph.requeue([task])
            self._dispatch()
            return
        # GIVE_UP
        with self._lock:
            task.state = TaskState.FAILED
            task.error = exc
            self.runtime.journal_task_event(task, ckpt.FAILED, node=node)
            self.runtime.fail_descendants(task, end)
            self._resolutions += 1
            self._done_cond.notify_all()

    # ------------------------------------------------------------------
    # Speculative re-execution (watchdog)
    # ------------------------------------------------------------------
    def _speculation_loop(self) -> None:
        while not self._stop_event.wait(self.SPECULATION_POLL_S):
            try:
                self._check_stragglers()
            except Exception:  # noqa: BLE001 - watchdog must never die
                _log.exception("speculation watchdog error")

    def _check_stragglers(self) -> None:
        assert self.runtime is not None
        detector = self.runtime.straggler
        if detector is None:
            return
        now = self._now()
        with self._lock:
            if self._shutdown:
                return
            candidates = []
            for attempts in self._active.values():
                if len(attempts) != 1:
                    continue
                attempt = attempts[0]
                if attempt.speculative or attempt.assignment.extra_allocations:
                    continue
                task = attempt.assignment.task
                threshold = detector.threshold(task.definition.name)
                if threshold is not None and now - attempt.start >= threshold:
                    candidates.append((attempt, threshold))
        for attempt, threshold in candidates:
            self._launch_backup(attempt, threshold)

    def _launch_backup(self, attempt: _LocalAttempt, threshold: float) -> None:
        assert self.runtime is not None and self._threads is not None
        task = attempt.assignment.task
        origin = attempt.assignment.allocation.node
        pool = self.runtime.pool
        others = [w.name for w in pool.available_workers() if w.name != origin]
        if not others:
            return
        alloc = pool.try_allocate(
            attempt.assignment.implementation.constraint, preferred=others
        )
        if alloc is None:
            return
        if alloc.node == origin:
            pool.release(alloc)
            return
        with self._lock:
            still_lone = (
                self._active.get(task.task_id) == [attempt]
                and task.state == TaskState.RUNNING
                and not self._shutdown
            )
            if not still_lone:
                pool.release(alloc)
                return
            backup = Assignment(task, alloc, attempt.assignment.implementation)
            self.runtime.resilience.record(
                self._now(), rsl.SPECULATION_LAUNCHED, task.label, alloc.node,
                detail=f"running {self._now() - attempt.start:.2f}s > "
                f"{threshold:.2f}s threshold on {origin}",
            )
            self._threads.submit(self._run_attempt, backup, True)

    # ------------------------------------------------------------------
    def _record(
        self,
        task: TaskInvocation,
        assignment: Assignment,
        start: float,
        end: float,
        success: bool,
    ) -> None:
        assert self.runtime is not None
        if not self.runtime.tracer.enabled:
            # Zero-cost when tracing is off: no TaskRecord construction,
            # no buffer append on the fast path.
            return
        for alloc in assignment.all_allocations:
            self.runtime.tracer.record_task(
                TaskRecord(
                    task_label=task.label,
                    task_name=task.definition.name,
                    node=alloc.node,
                    cpu_ids=alloc.cpu_ids,
                    gpu_ids=alloc.gpu_ids,
                    start=start,
                    end=end,
                    success=success,
                    attempt=task.attempts,
                )
            )

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        with self._done_cond:
            # Track only the not-yet-finished subset so each wake-up scans
            # a shrinking list instead of every awaited task, and rescan
            # only when something actually resolved — a pure-timeout wake
            # (the 0.5s elastic heartbeat) changes no task state.
            pending = list(tasks)
            seen = self._resolutions - 1
            while True:
                if self._resolutions != seen:
                    seen = self._resolutions
                    still = []
                    for t in pending:
                        if t.state == TaskState.FAILED:
                            cause = t.error or RuntimeError("unknown")
                            raise TaskFailedError(t, cause) from cause
                        if t.state != TaskState.DONE:
                            still.append(t)
                    pending = still
                    if not pending:
                        return
                    # Rescan cadence doubles as GC relief: freeze the
                    # completed-task history out of the cycle
                    # collector's scan set (see runtime.gc_checkpoint).
                    if self.runtime is not None:
                        self.runtime.gc_checkpoint()
                self._done_cond.wait(timeout=0.5)
                # The poll doubles as the elastic heartbeat: complete
                # idle drains and reap starved-out classes so a study
                # whose only remaining work is unplaceable fails with
                # ResourceStarvationError instead of spinning here.
                self._check_drains()
                self._reap_starved()

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            for timer in self._draining.values():
                timer.cancel()
            self._draining.clear()
        self._stop_event.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self._bodies is not None:
            # Hung bodies were released via the stop event; don't block on
            # any abandoned user body that is genuinely wedged.
            self._bodies.shutdown(wait=False)
        if self._procs is not None:
            self._procs.shutdown(wait=True)
