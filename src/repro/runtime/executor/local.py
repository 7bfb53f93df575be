"""Real local execution: task bodies on a thread pool.

Tasks run eagerly as resources free up, exactly like the COMPSs worker:
the dispatch loop re-runs on every submission and completion, so "the
next task is assigned a computational unit as soon as one is available"
(paper §6.1).

Bodies run in a thread pool, which overlaps sleeping, I/O-bound and
long-BLAS-call bodies but not CPU-bound Python: the zoo's small-batch
training spends most of its time in interpreter code between short numpy
calls, so two training threads contend for the GIL instead of
overlapping.  The benchmark suite measures it on the 27-config
real-training grid with 2 slots: on a 2-core host ``grid27_train_threads``
takes about 1.5 times as long as a plain serial loop
(``hpo.serial_baseline_s``) and 2.7 times as long as
``backend="workers"`` (``grid27_train_workers``), with summed body time
inflated about 2.7-fold (``local.body_inflation``); EXPERIMENTS.md has
the measurements.  Use ``backend="workers"``
(:class:`~repro.runtime.executor.workers.WorkerPoolExecutor`, which
replaces only where bodies run) for CPU-bound training; threads remain
the default because they need no picklable bodies and start instantly.

Retries, backoff, speculation, drains and the starvation reap follow the
shared attempt lifecycle (:mod:`repro.runtime.executor.base`) in
wall-clock time.  Its timers — backoff waits, straggler checks, drain
and starvation deadlines — are ``threading.Timer`` threads that run
their handler under the runtime lock, so a failed attempt's slot and
pool thread are free while it waits.  With ``task_timeout_s`` set,
bodies run behind a wall-clock deadline — a hung body becomes a
retryable :class:`~repro.runtime.fault.TaskTimeoutError`, but the
abandoned body keeps its thread until it returns (CPython threads cannot
be killed; the worker pool hard-kills the process instead).  A blocked
``wait_for`` wakes every 0.5 s to rescan for out-of-band failures and to
give the garbage collector its checkpoint.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime import integrity as igr
from repro.runtime import resilience as rsl
from repro.runtime.executor.base import Attempt, Executor
from repro.runtime.fault import TaskFailedError, TaskTimeoutError
from repro.runtime.scheduler.base import Assignment, release_assignment
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.util.validation import check_positive


class _Wait:
    """One blocked :meth:`LocalExecutor.wait_for`: awaited tasks not done."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        self.remaining = remaining


class LocalExecutor(Executor):
    """Threaded executor over the runtime's resource pool.

    Parameters
    ----------
    max_parallel:
        Cap on simultaneously-running bodies (defaults to the pool's
        task-usable CPU count, min 1).
    """

    def __init__(self, max_parallel: Optional[int] = None):
        super().__init__()
        self.max_parallel = max_parallel
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._threads: Optional[ThreadPoolExecutor] = None
        #: Deadline-guarded bodies run here (created when timeouts are on).
        self._bodies: Optional[ThreadPoolExecutor] = None
        self._stop_event = threading.Event()
        #: task_id -> the blocked ``wait_for`` calls awaiting it; the
        #: success path counts each one down (:meth:`_count_down`).
        self._waits: Dict[int, List[_Wait]] = {}
        #: Bumped (under the lock) by every out-of-band resolution — a
        #: give-up or an abandoned study, the only ways an awaited task
        #: fails — so ``wait_for`` rescans for failures only then.
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

    def _bind_backend(self, n: int) -> None:
        """Create the body-execution backend (hook for subclasses)."""
        assert self.runtime is not None
        if self.runtime.config.task_timeout_s is not None:
            # Bodies get their own pool so a worker thread can abandon a
            # hung body at the deadline; a few spare slots absorb
            # abandoned-but-still-running bodies.
            self._bodies = ThreadPoolExecutor(
                max_workers=n + 4, thread_name_prefix="repro-body"
            )

    def clock(self) -> float:
        return time.perf_counter() - self._epoch

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def notify_submitted(self, task: TaskInvocation) -> None:
        self._dispatch()

    def notify_task_resolutions(self) -> None:
        """Wake blocked waiters after a terminal transition."""
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
        drain whose node went idle and re-arms the starvation deadline.
        """
        assert self.runtime is not None and self._threads is not None
        with self._lock:
            if self._shutdown:
                return
            self._check_drains()
            runtime = self.runtime
            runtime.dispatcher.ingest(runtime.graph.pop_ready())
            for assignment in runtime.dispatcher.schedule_round():
                assignment.task.state = TaskState.RUNNING
                self._threads.submit(self._run_attempt, assignment)
            self._arm_starvation_watchdog()

    def _start(self, assignment: Assignment, speculative: bool = False) -> None:
        assert self.runtime is not None and self._threads is not None
        if self._shutdown:
            release_assignment(self.runtime.pool, assignment)
            return
        assignment.task.state = TaskState.RUNNING
        self._threads.submit(self._run_attempt, assignment, speculative)

    def _at(self, when: float, fn: Callable[..., None], *args: Any):
        timer = threading.Timer(max(0.0, when - self.clock()), self._call_locked)
        timer.args = (timer, fn) + args
        timer.daemon = True
        if not self._shutdown:  # no timer starts after shutdown
            timer.start()
        return timer

    def _call_locked(
        self, timer: threading.Timer, fn: Callable[..., None], *args: Any
    ) -> None:
        with self._lock:
            # A timer cancelled under the lock after it woke does not run,
            # as a cancelled simulator event does not fire.
            if not self._shutdown and not timer.finished.is_set():
                fn(*args)

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain_node(self, node: str, deadline_s: float) -> None:
        with self._lock:
            super().drain_node(node, deadline_s)

    def _drain_deadline(self, node: str) -> None:
        """The drain window closed (timer thread); force the node out."""
        assert self.runtime is not None
        runtime = self.runtime
        if self._draining.pop(node, None) is None:
            return
        worker = runtime.pool.workers.get(node)
        if worker is None or not worker.draining:
            return
        if not self.node_busy(node):
            runtime.finish_drain(node)
            self._dispatch()
            return
        # Local attempts run in this process, so their in-flight results
        # stay valid after the node is forced out — no data is destroyed;
        # the slots are simply gone for future placements.
        flagged = runtime.preemption.suspended_count()
        runtime.resilience.record(
            self.clock(), rsl.DRAIN_DEADLINE, "", node,
            detail="attempts still running; node forcibly retired"
            + (f"; {flagged} suspend-flagged trial(s) warm-resumable"
               if flagged else ""),
        )
        runtime.pool.retire_worker(node)
        self._dispatch()

    # ------------------------------------------------------------------
    # Attempt execution
    # ------------------------------------------------------------------
    def _run_attempt(self, assignment: Assignment, speculative: bool = False) -> None:
        assert self.runtime is not None
        runtime = self.runtime
        task = assignment.task
        attempt = Attempt(assignment, self.clock(), speculative)
        with self._lock:
            if task.state in (TaskState.DONE, TaskState.FAILED):
                # The task resolved before this (backup) attempt started.
                release_assignment(runtime.pool, assignment)
                return
            self._attempts.setdefault(task.task_id, []).append(attempt)
            if not speculative:
                task.node = assignment.allocation.node
                if runtime.straggler is not None:
                    self._schedule_spec_check(task.task_id, attempt)
        try:
            self._verify_inputs(task, speculative)
            hang, slow = False, 1.0
            if runtime.failure_injector is not None and not speculative:
                failure = self._injected_failure(task)
                if failure is not None:
                    raise failure
                hang, slow = self._injected_delay(task)
            result = self._execute_body(task, assignment, hang, slow)
        except BaseException as exc:  # noqa: BLE001 - any body error goes to fault handling
            with self._lock:
                if self._detach(task.task_id, attempt):
                    attempt.cancel_events()
                    self._attempt_failed(attempt, exc, self.clock())
            return
        self._on_success(attempt, result)

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
        self, task: TaskInvocation, assignment: Assignment, hang: bool, slow: float
    ):
        """Run the body (behind the deadline when ``task_timeout_s`` is set).

        ``hang`` / ``slow`` are the injector's scripted wedge and slowdown.
        """
        assert self.runtime is not None
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

        if timeout is None:
            return body()
        assert self._bodies is not None
        try:
            return self._bodies.submit(body).result(timeout=timeout)
        except FuturesTimeoutError:
            raise TaskTimeoutError(
                f"task {task.label} exceeded its {timeout}s deadline "
                f"on {assignment.allocation.node}"
            ) from None

    def _on_success(self, attempt: Attempt, result) -> None:
        assert self.runtime is not None
        runtime = self.runtime
        assignment = attempt.assignment
        task = assignment.task
        end = self.clock()
        node = assignment.allocation.node
        with self._lock:
            if not self._detach(task.task_id, attempt):
                # A sibling won the race and already released this one.
                return
            if attempt.spec_check is not None:
                attempt.cancel_events()
            if task.state in (TaskState.DONE, TaskState.FAILED):
                # Resolved out of band (its study was abandoned).
                release_assignment(runtime.pool, assignment)
                return
            if attempt.speculative or task.task_id in self._attempts:
                self._settle_race(attempt, end)
            task.result = result
            task.start_time, task.end_time = attempt.start, end
            task.node = node
            runtime.complete_task(task, result)
            self._count_down(task)
        self._record(task, assignment, attempt.start, end, success=True)
        release_assignment(runtime.pool, assignment)
        runtime.node_health.record_success(node)
        if runtime.straggler is not None:
            with self._lock:
                runtime.straggler.observe(task.definition.name, end - attempt.start)
                self._schedule_spec_checks_for_name(task.definition.name)
        self._dispatch()

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def _count_down(self, task: TaskInvocation) -> None:
        """Count ``task``'s completion against every wait blocked on it.

        Called with the lock held; wakes the waiters only when one of
        them has nothing left to wait for.
        """
        waits = self._waits.pop(task.task_id, None)
        if waits:
            done = False
            for wait in waits:
                wait.remaining -= 1
                done = done or not wait.remaining
            if done:
                self._done_cond.notify_all()

    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        with self._done_cond:
            # Each task's state is read once here; after that the success
            # path counts the wait down, and only an out-of-band
            # resolution (a give-up, an abandoned study) rescans the
            # awaited tasks for failures.
            failures = self._resolutions
            pending = self._unfinished(tasks)
            if not pending:
                return
            wait = _Wait(len(pending))
            waits = self._waits
            for t in pending:
                waits.setdefault(t.task_id, []).append(wait)
            try:
                while wait.remaining:
                    self._done_cond.wait(timeout=0.5)
                    if self._resolutions != failures:
                        failures = self._resolutions
                        self._unfinished(pending)
                    # The wake-up cadence doubles as GC relief: freeze the
                    # completed-task history out of the cycle collector's
                    # scan set (see runtime.gc_checkpoint).
                    if self.runtime is not None:
                        self.runtime.gc_checkpoint()
            finally:
                # Leaving early (a failure): drop this wait's entries.
                for t in pending if wait.remaining else ():
                    others = waits.get(t.task_id)
                    if others is not None and wait in others:
                        others.remove(wait)
                        if not others:
                            del waits[t.task_id]

    @staticmethod
    def _unfinished(tasks: Sequence[TaskInvocation]) -> List[TaskInvocation]:
        """The tasks not yet done; raises for the first failed one."""
        still = []
        for t in tasks:
            state = t.state
            if state == TaskState.FAILED:
                cause = t.error or RuntimeError("unknown")
                raise TaskFailedError(t, cause) from cause
            if state != TaskState.DONE:
                still.append(t)
        return still

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            self._cancel_timers()
        self._stop_event.set()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self._bodies is not None:
            # Hung bodies were released via the stop event; don't block on
            # any abandoned user body that is genuinely wedged.
            self._bodies.shutdown(wait=False)
