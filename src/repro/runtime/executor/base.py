"""Executor interface and the shared attempt lifecycle.

An executor owns *when and where task bodies run*; the runtime owns the
graph and data bookkeeping.  Every executor places tasks through the same
dispatch engine and resource pool, and every executor settles its attempts
through the lifecycle written once in :class:`Executor`, so scheduling and
fault handling are identical between real and simulated execution — only
the clock differs.

The lifecycle owns an attempt from registration to its end: the registry
of in-flight attempts (:class:`Attempt`), the trace record, failure
accounting (attempt count, node health, ``TIMEOUT`` / ``BACKOFF_WAIT``
events, the sibling-still-racing rule), the retry decision
(:func:`~repro.runtime.fault.decide_failure`), give-up with upstream
cancellation, requeueing, graceful drains, backup placement for
speculation and the injected-fault queries.  Its timers are armed here
too, through one primitive: straggler checks, the starvation deadline,
drain deadlines and backoff waits all go through :meth:`Executor._at`.
Each executor keeps only how an attempt runs (:meth:`Executor._start`: a
pool thread, a worker process or a simulator event), how a call is
deferred to a point in time (:meth:`Executor._at`: a timer or a scheduled
event) and its clock.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime import lineage
from repro.runtime import resilience as rsl
from repro.runtime.fault import (
    FaultAction,
    ResourceStarvationError,
    TaskTimeoutError,
    decide_failure,
)
from repro.runtime.future import Future, is_future
from repro.runtime.scheduler.base import Assignment, release_assignment
from repro.runtime.task_definition import _DEP_FREE_TYPES, TaskInvocation, TaskState
from repro.runtime.tracing.extrae import TaskRecord
from repro.util.logging_utils import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime

_log = get_logger("runtime.executor")

_RESOLVED = (TaskState.DONE, TaskState.FAILED)


# Module-level, never closures of ``resolve_arguments``: two recursive
# closures per call are a reference cycle per executed task, which the
# frozen heap of ``manage_gc`` pins until ``stop()``.
def _contains_future(v: Any) -> bool:
    if is_future(v):
        return True
    if isinstance(v, (list, tuple, set)):
        return any(_contains_future(i) for i in v)
    if isinstance(v, dict):
        return any(_contains_future(i) for i in v.values())
    return False


def _resolve(v: Any) -> Any:
    if is_future(v):
        return v.result()
    if not _contains_future(v):
        return v
    if isinstance(v, list):
        return [_resolve(i) for i in v]
    if isinstance(v, tuple):
        return tuple(_resolve(i) for i in v)
    if isinstance(v, set):
        return {_resolve(i) for i in v}
    if isinstance(v, dict):
        return {k: _resolve(i) for k, i in v.items()}
    return v


class Attempt:
    """One in-flight attempt of a task (primary or speculative backup).

    ``handle`` and ``timeout_handle`` are the simulated executor's
    completion and deadline events (the local executors leave them
    unset); ``spec_check`` is the straggler check that every executor
    arms through :meth:`Executor._at`.
    """

    __slots__ = ("assignment", "start", "speculative", "handle",
                 "timeout_handle", "spec_check")

    def __init__(self, assignment: Assignment, start: float, speculative: bool):
        self.assignment = assignment
        self.start = start
        self.speculative = speculative
        self.handle: Any = None
        self.timeout_handle: Any = None
        self.spec_check: Any = None

    def cancel_events(self) -> None:
        for handle in (self.handle, self.timeout_handle, self.spec_check):
            if handle is not None:
                handle.cancel()
        self.handle = self.timeout_handle = self.spec_check = None


class Executor(abc.ABC):
    """Abstract execution engine plus the shared attempt lifecycle.

    The threaded executors call the registry, failure, retry, drain and
    speculation methods with the runtime lock held; the simulated
    executor is single-threaded.
    """

    def __init__(self) -> None:
        self.runtime: Optional["COMPSsRuntime"] = None
        #: task_id -> attempts in flight (usually one; two while a
        #: speculative backup races the original).
        self._attempts: Dict[int, List[Attempt]] = {}
        #: node -> armed drain-deadline handle (graceful drain in progress).
        self._draining: Dict[str, Any] = {}
        #: task_id -> armed backoff wait before a retry.
        self._backoffs: Dict[int, Any] = {}
        #: The armed starvation deadline and when it fires.
        self._starvation_handle: Any = None
        self._starvation_at = 0.0

    def bind(self, runtime: "COMPSsRuntime") -> None:
        """Attach to a runtime (graph, pool, scheduler, tracer, policy)."""
        self.runtime = runtime

    def clock(self) -> float:
        """Current time in this executor's clock (wall or virtual)."""
        return 0.0

    @abc.abstractmethod
    def notify_submitted(self, task: TaskInvocation) -> None:
        """A task entered the graph; the executor may start it eagerly."""

    @abc.abstractmethod
    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        """Block (in real or virtual time) until ``tasks`` are all done.

        Raises :class:`repro.runtime.fault.TaskFailedError` if any of them
        exhausted its retry budget.
        """

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release threads/queues; the executor is unusable afterwards."""

    def notify_topology_change(self) -> None:
        """The pool's node set changed (add/drain/fail/recover).

        The dispatch engine has already buffered the wake via the pool's
        listener protocol; this hook gives the executor a chance to run a
        scheduling round *now* so waiting tasks reach the new capacity
        without waiting for the next completion.
        """
        self._dispatch()

    def notify_task_resolutions(self) -> None:
        """Task states changed outside the executor's completion paths.

        Called after out-of-band terminal transitions — e.g. the service
        layer abandoning a whole study — and after every give-up, so
        blocked ``wait_for`` calls rescan and observe the failures.
        Default no-op (polling executors pick the change up on their
        next scan).
        """

    def abort_task(self, task: TaskInvocation) -> bool:
        """Cancel the in-flight attempts of ``task`` (lineage recovery).

        Returns True only if every attempt was discarded *before*
        producing a result, so the task can safely re-enter the graph's
        ready set once its re-materialised inputs land.  The default is
        False: the local executor's threads resolved their arguments at
        start and keep running on the pre-loss in-memory values, which is
        correct (process memory is not what a simulated node loss
        destroys).
        """
        return False

    # ------------------------------------------------------------------
    # How each executor runs an attempt, waits, and schedules
    # ------------------------------------------------------------------
    def _start(self, assignment: Assignment, speculative: bool = False) -> None:
        """Run ``assignment`` as a new attempt."""
        raise NotImplementedError

    def _dispatch(self) -> None:
        """Run one scheduling round."""
        raise NotImplementedError

    def _at(self, when: float, fn: Callable[..., None], *args: Any) -> Any:
        """Call ``fn(*args)`` at time ``when`` of this executor's clock.

        The one timing primitive an executor implements.  Returns a
        handle with ``cancel()``.
        """
        raise NotImplementedError

    def _after(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        """Call ``fn(*args)`` after ``delay`` s of this executor's clock."""
        return self._at(self.clock() + delay, fn, *args)

    def _cancel_timers(self) -> None:
        """Cancel every armed attempt event, backoff wait, drain deadline
        and the starvation deadline (at shutdown)."""
        for attempts in self._attempts.values():
            for attempt in attempts:
                attempt.cancel_events()
        for handle in (*self._backoffs.values(), *self._draining.values()):
            handle.cancel()
        self._backoffs.clear()
        self._draining.clear()
        if self._starvation_handle is not None:
            self._starvation_handle.cancel()
            self._starvation_handle = None

    # ------------------------------------------------------------------
    # Attempt registry
    # ------------------------------------------------------------------
    def _detach(self, task_id: int, attempt: Attempt) -> bool:
        """Remove ``attempt`` from the active set; False if already gone."""
        attempts = self._attempts.get(task_id)
        if not attempts or attempt not in attempts:
            return False
        if len(attempts) == 1:  # no backup racing: no list.remove
            del self._attempts[task_id]
        else:
            attempts.remove(attempt)
        return True

    def node_busy(self, node: str) -> bool:
        """Whether the executor has attempts in flight on ``node``."""
        return any(
            al.node == node
            for attempts in self._attempts.values()
            for attempt in attempts
            for al in attempt.assignment.all_allocations
        )

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
    # Injected faults (primary attempts only: a speculative backup is a
    # clean re-execution on another node)
    # ------------------------------------------------------------------
    def _injected_failure(self, task: TaskInvocation) -> Optional[RuntimeError]:
        """The failure the injector scripts for this attempt, if any."""
        assert self.runtime is not None
        if self.runtime.failure_injector.should_fail(task.label, task.attempts):
            return RuntimeError(f"injected failure for {task.label}")
        return None

    def _injected_delay(self, task: TaskInvocation) -> Tuple[bool, float]:
        """``(hangs, slowdown factor)`` the injector scripts for this attempt."""
        assert self.runtime is not None
        injector = self.runtime.failure_injector
        return (
            injector.should_hang(task.label, task.attempts),
            injector.slow_factor(task.label),
        )

    # ------------------------------------------------------------------
    # Failure, retry, give-up
    # ------------------------------------------------------------------
    def _attempt_failed(
        self,
        attempt: Attempt,
        exc: BaseException,
        now: float,
        lost_node: Optional[str] = None,
    ) -> None:
        """Settle one failed attempt that the caller already detached.

        Counts and traces it, hands its resources back (except those
        stranded on ``lost_node``, which the pool resets when the node
        recovers; a multinode task may have lost one of several) and
        feeds node health.  Unless a sibling attempt is still racing, the
        retry policy then decides: retry in place, resubmit elsewhere —
        after the backoff, with the slot already free — or give up.
        Unless the retry runs at once, a scheduling round hands the freed
        slots to queued work.
        """
        assert self.runtime is not None
        runtime = self.runtime
        assignment = attempt.assignment
        task = assignment.task
        node = assignment.allocation.node
        failed_on = lost_node or node
        task.attempts += 1
        self._record(task, assignment, attempt.start, now, success=False)
        for alloc in assignment.all_allocations:
            if alloc.node != lost_node:
                runtime.pool.release(alloc)
        kind = "failure"
        if lost_node is not None:
            kind = "node-failure"
        elif isinstance(exc, TaskTimeoutError):
            kind = "timeout"
            timeout = float(runtime.config.task_timeout_s or 0.0)
            runtime.resilience.record(
                now, rsl.TIMEOUT, task.label, node,
                detail=f"deadline {timeout:.0f}s",
            )
        runtime.node_health.record_failure(failed_on, kind=kind)
        if task.task_id in self._attempts or task.state in _RESOLVED:
            # Another attempt already resolved (or is still racing) this
            # task: this failure must not consume the retry budget's
            # terminal decision.
            task.add_history(
                f"attempt {task.attempts} on {failed_on}: {exc!r} -> "
                "backup still running"
            )
            self._dispatch()
            return
        action, delay, line = decide_failure(
            runtime.retry_policy, task, exc, node, lost_node is not None
        )
        task.add_history(line)
        _log.info(
            "t=%.1f task %s failed (attempt %d): %s -> %s",
            now, task.label, task.attempts, exc, action.value,
        )
        retry = (
            self._retry_same_node
            if action is FaultAction.RETRY_SAME_NODE
            else self._requeue
        )
        if action is FaultAction.GIVE_UP:
            self._give_up(task, exc, node, now)
        elif delay > 0.0:
            runtime.resilience.record(
                now, rsl.BACKOFF_WAIT, task.label, node,
                detail=f"{delay:.2f}s before {action.value}",
            )
            self._backoffs[task.task_id] = self._after(
                delay, self._end_backoff, retry, assignment
            )
        else:
            retry(assignment)
            return
        self._dispatch()

    def _end_backoff(
        self, retry: Callable[[Assignment], None], assignment: Assignment
    ) -> None:
        del self._backoffs[assignment.task.task_id]
        retry(assignment)

    def _retry_same_node(self, assignment: Assignment) -> None:
        """Reacquire the failed attempt's node and rerun there.

        Paper: "tries to start the same task in the same node".  When the
        node is gone or full by now, the task moves on to another node.
        """
        assert self.runtime is not None
        pool = self.runtime.pool
        node = assignment.allocation.node
        alloc = pool.try_allocate(
            assignment.implementation.constraint, preferred=[node]
        )
        if alloc is None or alloc.node != node:
            if alloc is not None:
                pool.release(alloc)
            self._requeue(assignment)
            return
        self._start(Assignment(assignment.task, alloc, assignment.implementation))

    def _requeue(self, assignment: Assignment) -> None:
        """Send the task back to the ready queue, away from its failed node."""
        assert self.runtime is not None
        task = assignment.task
        task.add_failed_node(assignment.allocation.node)
        task.state = TaskState.READY
        self.runtime.graph.requeue([task])
        self._dispatch()

    def _give_up(
        self, task: TaskInvocation, exc: BaseException, node: str, now: float
    ) -> None:
        """Fail ``task`` terminally and cancel its transitive consumers."""
        assert self.runtime is not None
        lineage.fail_task(self.runtime, task, exc, node=node)
        lineage.fail_descendants(self.runtime, task, now)
        self.notify_task_resolutions()

    def _fail_starved(self, now: float) -> None:
        """Fail every task whose constraint class starved past the timeout."""
        assert self.runtime is not None
        for task, waited in self.runtime.dispatcher.reap_starved():
            names = ", ".join(
                impl.constraint.describe()
                for impl in task.definition.all_candidates()
            )
            exc = ResourceStarvationError(task.label, names, waited)
            task.add_history(f"starved for {waited:g}s: {exc}")
            self._give_up(task, exc, "", now)

    def _arm_starvation_watchdog(self) -> None:
        """Keep one timer armed at the earliest starvation deadline.

        This is what turns an otherwise-stalled run (every node a class
        could use is dead or draining, queue empty) into a timed,
        structured failure instead of a hang.
        """
        assert self.runtime is not None
        deadline = self.runtime.dispatcher.next_starvation_deadline()
        handle = self._starvation_handle
        if deadline is None:
            if handle is not None:
                handle.cancel()
                self._starvation_handle = None
            return
        if handle is not None:
            if self._starvation_at <= deadline + 1e-9:
                return  # armed early enough; the handler re-arms
            handle.cancel()
        self._starvation_at = max(deadline, self.clock())
        self._starvation_handle = self._at(self._starvation_at, self._reap_starved)

    def _reap_starved(self) -> None:
        """The starvation deadline fired: fail every task whose class
        starved past the timeout, then re-arm for the next one."""
        self._starvation_handle = None
        self._fail_starved(self.clock())
        self._arm_starvation_watchdog()

    # ------------------------------------------------------------------
    # Speculative re-execution
    # ------------------------------------------------------------------
    def _schedule_spec_check(self, task_id: int, attempt: Attempt) -> None:
        """Arm a straggler check for ``attempt`` if a median is known."""
        assert self.runtime is not None
        detector = self.runtime.straggler
        if detector is None or attempt.speculative or attempt.spec_check:
            return
        assignment = attempt.assignment
        if assignment.extra_allocations:
            return  # multinode tasks are not speculated
        threshold = detector.threshold(assignment.task.definition.name)
        if threshold is None:
            return
        attempt.spec_check = self._at(
            max(self.clock(), attempt.start + threshold),
            self._spec_check, task_id, attempt,
        )

    def _schedule_spec_checks_for_name(self, name: str) -> None:
        """A completion updated ``name``'s median: arm checks on its peers."""
        assert self.runtime is not None
        detector = self.runtime.straggler
        if detector is None or detector.threshold(name) is None:
            return
        for task_id, attempts in list(self._attempts.items()):
            if len(attempts) != 1:
                continue
            attempt = attempts[0]
            if attempt.assignment.task.definition.name == name:
                self._schedule_spec_check(task_id, attempt)

    def _spec_check(self, task_id: int, attempt: Attempt) -> None:
        """Decide whether a running attempt is a straggler; maybe back it up."""
        assert self.runtime is not None
        attempt.spec_check = None
        attempts = self._attempts.get(task_id)
        if not attempts or attempt not in attempts or len(attempts) > 1:
            return
        detector = self.runtime.straggler
        if detector is None:
            return
        threshold = detector.threshold(attempt.assignment.task.definition.name)
        if threshold is None:
            return
        now, due = self.clock(), attempt.start + threshold
        if now < due:
            # Median grew since this check was armed: re-arm at the new
            # threshold.  ``now - start < threshold`` can hold at
            # ``now == due`` by rounding and would re-arm there forever.
            attempt.spec_check = self._at(due, self._spec_check, task_id, attempt)
            return
        backup = self._backup(attempt, threshold, now)
        if backup is not None:
            self._start(backup, speculative=True)

    def _backup(
        self, attempt: Attempt, threshold: float, now: float
    ) -> Optional[Assignment]:
        """Place a backup of a straggling attempt on another node, if any."""
        assert self.runtime is not None
        assignment = attempt.assignment
        origin = assignment.allocation.node
        pool = self.runtime.pool
        others = [w.name for w in pool.available_workers() if w.name != origin]
        if not others:
            return None
        alloc = pool.try_allocate(
            assignment.implementation.constraint, preferred=others
        )
        if alloc is None:
            return None
        if alloc.node == origin:
            pool.release(alloc)
            return None
        task = assignment.task
        self.runtime.resilience.record(
            now, rsl.SPECULATION_LAUNCHED, task.label, alloc.node,
            detail=f"running {now - attempt.start:.1f}s > {threshold:.1f}s "
            f"threshold on {origin}",
        )
        return Assignment(task, alloc, assignment.implementation)

    def _settle_race(self, attempt: Attempt, now: float) -> None:
        """``attempt`` finished first: cancel its siblings, log a backup's win."""
        assert self.runtime is not None
        runtime = self.runtime
        task = attempt.assignment.task
        node = attempt.assignment.allocation.node
        for loser in self._attempts.pop(task.task_id, ()):
            loser.cancel_events()
            release_assignment(runtime.pool, loser.assignment)
            runtime.resilience.record(
                now, rsl.SPECULATION_CANCELLED, task.label,
                loser.assignment.allocation.node,
                detail=f"lost to attempt on {node}",
            )
        if attempt.speculative:
            runtime.resilience.record(
                now, rsl.SPECULATION_WON, task.label, node,
                detail=f"backup finished first after {now - attempt.start:.1f}s",
            )

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain_node(self, node: str, deadline_s: float) -> None:
        """Honour a drain: finish ``node``'s running attempts, then retire
        it; arm ``_drain_deadline`` to fire at ``deadline_s``.

        The pool state (DRAINING) and data spill are handled by the
        runtime before this is called.
        """
        assert self.runtime is not None
        if not self.node_busy(node):
            self.runtime.finish_drain(node)
            self._dispatch()
            return
        previous = self._draining.pop(node, None)
        if previous is not None:
            previous.cancel()
        self._draining[node] = self._after(
            float(deadline_s), self._drain_deadline, node
        )
        self._dispatch()

    def _drain_deadline(self, node: str) -> None:
        """The drain window of ``node`` closed with attempts still on it."""
        raise NotImplementedError

    def _check_drains(self) -> None:
        """Complete any drain whose node has gone idle."""
        if not self._draining:
            return
        assert self.runtime is not None
        for node in sorted(self._draining):
            if self.node_busy(node):
                continue
            self._draining.pop(node).cancel()
            self.runtime.finish_drain(node)

    # ------------------------------------------------------------------
    # Argument and result plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def resolve_arguments(
        task: TaskInvocation,
    ) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
        """Replace future arguments with their resolved values.

        Dependencies guarantee producers completed before this is called.
        Only containers that hold a future are rebuilt — anything else,
        ``task.args`` and ``task.kwargs`` included, is passed through as
        the same object, so INOUT mutations land on the caller's object.
        Early exit: no kwargs and only exact ``_DEP_FREE_TYPES`` positionals
        return ``task.args`` and ``task.kwargs`` unscanned.
        """
        args, kwargs = task.args, task.kwargs
        if not kwargs:
            for value in args:
                if type(value) not in _DEP_FREE_TYPES:
                    break
            else:
                return args, kwargs
        return _resolve(args), _resolve(kwargs)

    @staticmethod
    def fan_out_result(task: TaskInvocation, futures: Sequence[Future], result: Any) -> None:
        """Distribute a task's return value into its future slots."""
        n = len(futures)
        if n == 0:
            return
        if n == 1:
            futures[0].set_result(result)
            return
        try:
            values = list(result)
        except TypeError:
            raise TypeError(
                f"task {task.label} declared {n} returns but produced a "
                f"non-iterable {type(result).__name__}"
            ) from None
        if len(values) != n:
            raise ValueError(
                f"task {task.label} declared {n} returns but produced "
                f"{len(values)} values"
            )
        for fut, value in zip(futures, values):
            fut.set_result(value)
