"""Supervised worker-process pool (``backend="workers"``).

The thread backend cannot contain a hostile task body: a segfault, an
OOM-kill, or ``os._exit`` takes the whole driver with it, and a
genuinely wedged body keeps its thread forever (CPython threads cannot
be killed).  This backend closes both gaps with the worker model the
paper's runtime (and Tune/Hippo-style trial executors) relies on —
**one long-lived worker process per slot**, each talking to the driver
over its own duplex pipe, under a supervisor thread that owns the pool's
lifecycle.  It is the local executor with one thing replaced: where an
attempt's body runs.  Dispatch, retries, backoff, speculation, drains
and the starvation reap are the shared attempt lifecycle
(:mod:`repro.runtime.executor.base`), unchanged:

* **Crash containment** — a worker that dies mid-task (segfault, OOM,
  ``sys.exit``/``os._exit``, external ``SIGKILL``) is detected via its
  process sentinel, the in-flight attempt becomes a retryable
  :class:`~repro.runtime.fault.WorkerCrashError` fed through the shared
  retry decision and node health, a replacement worker is spawned, and
  every other slot keeps running.
* **Hard-kill deadlines** — with ``task_timeout_s`` set, a body still
  running at the deadline gets its worker ``SIGKILL``-ed and respawned:
  the attempt is a retryable ``TaskTimeoutError`` and *no* abandoned
  thread or process survives.
* **Poison-task quarantine** — a task that kills ``poison_threshold``
  consecutive workers is blacklisted: further attempts raise a
  :class:`~repro.runtime.fault.PoisonTaskError`, which the retry
  decision treats as terminal, instead of burning the retry budget
  killing worker after worker.
* **Worker recycling** — after ``max_tasks_per_worker`` completed tasks
  a worker is drained gracefully and replaced, bounding native-library
  leak accumulation over multi-day studies.

IPC protocol (pipe per worker; parent → child ``task``/``stop``,
child → parent ``ready``/``ack``/``heartbeat``/``done``/``error``): the
child acks each task before running it (deadlines measure body time, not
queue time), a daemon thread heartbeats every ``HEARTBEAT_S`` so the
supervisor can tell *alive-and-wedged* from *dead*, and results/errors
travel back pickled.  Task functions are shipped by reference
(``module:qualname``, unwrapping ``@task`` wrappers via
``__wrapped__``) with a plain-pickle fast path.

Crash consistency: a crashed attempt is journalled as ``failed`` — a
``completed`` record is only ever written by the driver *after* the
result landed in driver memory, so a worker death can never fabricate a
torn completion.  Every decision is a structured
:class:`~repro.runtime.resilience.ResilienceLog` event
(``worker_crash`` / ``worker_killed`` / ``worker_recycled`` /
``poison_task``) surfaced through ``runtime.analysis()`` and the CLI
report.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.runtime import resilience as rsl
from repro.runtime.executor.local import LocalExecutor
from repro.runtime.fault import PoisonTaskError, TaskTimeoutError, WorkerCrashError
from repro.runtime.scheduler.base import Assignment
from repro.runtime.task_definition import TaskInvocation
from repro.util.logging_utils import get_logger
from repro.util.validation import check_positive

_log = get_logger("runtime.executor.workers")


# ----------------------------------------------------------------------
# Function / exception transport
# ----------------------------------------------------------------------
def _encode_func(func) -> Tuple:
    """Serialise a task body for the pipe.

    Plain module-level functions pickle by reference directly.  ``@task``
    replaces the module-level name with its wrapper, which defeats
    pickle's identity check — those ship as a ``(module, qualname)``
    reference that the worker resolves and unwraps via ``__wrapped__``.
    """
    try:
        return ("pickle", pickle.dumps(func, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - fall back to by-reference transport
        module = getattr(func, "__module__", None)
        qualname = getattr(func, "__qualname__", None)
        if module and qualname and "<locals>" not in qualname:
            return ("ref", module, qualname)
        raise TypeError(
            f"task body {func!r} is not transportable to a worker process: "
            "it is neither picklable nor importable by module:qualname "
            "(closures and lambdas need backend='threads')"
        ) from None


def _decode_func(blob: Tuple):
    """Worker-side inverse of :func:`_encode_func`."""
    if blob[0] == "pickle":
        return pickle.loads(blob[1])
    _, module_name, qualname = blob
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    wrapped = getattr(obj, "__wrapped__", None)
    return wrapped if wrapped is not None else obj


def _encode_exc(exc: BaseException) -> Tuple:
    """Serialise a body exception (pickle, else repr + traceback)."""
    try:
        return ("pickle", pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - anything unpicklable degrades to repr
        return ("repr", type(exc).__name__, repr(exc), traceback.format_exc())


def _decode_exc(blob: Tuple) -> BaseException:
    if blob[0] == "pickle":
        try:
            return pickle.loads(blob[1])
        except Exception:  # noqa: BLE001 - class not importable driver-side
            return RuntimeError("task body raised an undecodable exception")
    _, type_name, rep, tb = blob
    return RuntimeError(f"task body raised {type_name}: {rep}\n{tb}")


# ----------------------------------------------------------------------
# Worker child process
# ----------------------------------------------------------------------
#: Worker heartbeat interval (liveness telemetry in ``pool_status``).
HEARTBEAT_S = 1.0


def _worker_main(conn) -> None:
    """Long-lived worker loop: recv task → ack → run → send result.

    ``Exception`` from a body is *contained* (reported back, worker keeps
    serving); ``BaseException`` (``sys.exit``, ``KeyboardInterrupt``) is
    allowed to kill the process — the supervisor's crash-containment path
    handles it like any other worker death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        import faulthandler

        # An inherited faulthandler would dump this child's threads into
        # the driver's stderr on every contained crash; the supervisor's
        # exitcode report is the authoritative signal.
        faulthandler.disable()
    except Exception:  # noqa: BLE001
        pass
    # Under the fork start method the child inherits the driver's active
    # runtime; clear it so a body calling other @task functions gets the
    # documented sequential fallback instead of a forked runtime's locks.
    try:
        from repro.runtime.runtime import set_current

        set_current(None)
    except Exception:  # noqa: BLE001 - never let setup kill the worker
        pass
    # Likewise under fork: inherited in-process suspend flags belong to
    # the driver (and may have been cleared there after the fork).  The
    # flag *file* is the cross-process truth; start with a clean slate.
    try:
        from repro.runtime.preemption import clear_local_flags

        clear_local_flags()
    except Exception:  # noqa: BLE001
        pass
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def _beat() -> None:
        while not stop.wait(HEARTBEAT_S):
            try:
                _send(("heartbeat", os.getpid()))
            except Exception:  # noqa: BLE001 - parent gone; exit quietly
                return

    threading.Thread(target=_beat, name="repro-pool-heartbeat", daemon=True).start()
    try:
        _send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, seq, func_blob, args, kwargs, hang, slow = msg
            _send(("ack", seq))
            if hang:
                # Injected wedge: sleep until the supervisor SIGKILLs us.
                while True:
                    time.sleep(3600.0)
            try:
                func = _decode_func(func_blob)
                t0 = time.perf_counter()
                result = func(*args, **kwargs)
                if slow > 1.0:
                    time.sleep((slow - 1.0) * (time.perf_counter() - t0))
            except Exception as exc:  # noqa: BLE001 - contained body error
                _send(("error", seq, _encode_exc(exc)))
                continue
            try:
                _send(("done", seq, result))
            except Exception as exc:  # noqa: BLE001 - unpicklable result
                _send(
                    (
                        "error",
                        seq,
                        _encode_exc(
                            RuntimeError(
                                f"task result is not picklable: {exc!r}"
                            )
                        ),
                    )
                )
    finally:
        stop.set()


# ----------------------------------------------------------------------
# Driver-side bookkeeping
# ----------------------------------------------------------------------
class _PendingCall:
    """One in-flight body: the submitter thread parks on ``done``."""

    __slots__ = ("done", "outcome", "value", "exc")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome: Optional[str] = None  # "done" | "error" | "crash"
        self.value: Any = None
        self.exc: Optional[BaseException] = None

    def resolve(
        self,
        outcome: str,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        if self.done.is_set():
            return
        self.outcome = outcome
        self.value = value
        self.exc = exc
        self.done.set()


class _Worker:
    """Driver-side record of one worker process."""

    STARTING = "starting"
    IDLE = "idle"
    BUSY = "busy"
    RETIRING = "retiring"
    DEAD = "dead"

    __slots__ = (
        "wid", "process", "conn", "send_lock", "state", "pending", "seq",
        "task_label", "node", "busy_since", "body_started", "tasks_done",
        "last_heartbeat", "kill_reason", "pid",
    )

    def __init__(self, wid: int, process, conn) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.state = self.STARTING
        self.pending: Optional[_PendingCall] = None
        self.seq = 0
        self.task_label = ""
        self.node = ""
        self.busy_since: Optional[float] = None
        self.body_started: Optional[float] = None
        self.tasks_done = 0
        self.last_heartbeat: Optional[float] = None
        self.kill_reason: Optional[str] = None
        self.pid: Optional[int] = process.pid


class WorkerPoolExecutor(LocalExecutor):
    """Supervised worker-pool variant of the local executor.

    Inherits the dispatch/retry/speculation/tracing machinery from
    :class:`LocalExecutor` and replaces only *where bodies run*: each
    attempt is shipped to a dedicated long-lived worker process instead
    of an in-driver thread.

    Parameters
    ----------
    max_parallel:
        Pool size (defaults to the resource pool's task-usable CPUs);
        one worker process per slot.
    max_tasks_per_worker:
        Completed tasks after which a worker is gracefully recycled
        (``None`` disables recycling).
    poison_threshold:
        Consecutive worker deaths a single task may cause before it is
        blacklisted with a terminal ``PoisonTaskError``.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast respawn, inherits imported task modules), else
        ``spawn``.
    """

    #: Supervisor poll interval: bounds deadline-kill latency.
    SUPERVISOR_POLL_S = 0.05

    def __init__(
        self,
        max_parallel: Optional[int] = None,
        max_tasks_per_worker: Optional[int] = None,
        poison_threshold: int = 3,
        start_method: Optional[str] = None,
    ):
        super().__init__(max_parallel=max_parallel)
        if max_tasks_per_worker is not None:
            check_positive("max_tasks_per_worker", max_tasks_per_worker)
        check_positive("poison_threshold", poison_threshold)
        self.max_tasks_per_worker = max_tasks_per_worker
        self.poison_threshold = int(poison_threshold)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._pool_lock = threading.Lock()
        self._pool_cond = threading.Condition(self._pool_lock)
        self._pool_workers: List[_Worker] = []
        self._idle: Deque[_Worker] = deque()
        self._dead: List[_Worker] = []
        #: task label → consecutive worker deaths it caused.
        self._deaths: Dict[str, int] = {}
        #: Blacklisted task labels (terminal PoisonTaskError).
        self._poisoned: Set[str] = set()
        self._supervisor: Optional[threading.Thread] = None
        self._wid = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _bind_backend(self, n: int) -> None:
        for _ in range(n):
            self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_worker(self) -> Optional[_Worker]:
        if self._stop_event.is_set():
            return None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._wid += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-pool-{self._wid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(self._wid, process, parent_conn)
        with self._pool_cond:
            self._pool_workers.append(worker)
        return worker

    # ------------------------------------------------------------------
    # Body execution (submitter threads)
    # ------------------------------------------------------------------
    def _execute_body(
        self, task: TaskInvocation, assignment: Assignment, hang: bool, slow: float
    ):
        assert self.runtime is not None
        label = task.label
        node = assignment.allocation.node
        if self._stop_event.is_set():
            raise WorkerCrashError(label, "worker pool shutting down")
        with self._pool_lock:
            if label in self._poisoned:
                deaths = self._deaths.get(label, 0)
                raise PoisonTaskError(label, deaths, self.poison_threshold)
        args, kwargs = self.resolve_arguments(task)
        func_blob = _encode_func(assignment.implementation.func)
        pending = _PendingCall()
        worker = self._acquire_worker(pending, label, node)
        worker.seq += 1
        try:
            with worker.send_lock:
                worker.conn.send(
                    ("task", worker.seq, func_blob, args, kwargs, hang, slow)
                )
        except (OSError, EOFError, BrokenPipeError) as exc:
            # Died between acquire and send; the supervisor reaps it via
            # the sentinel.  Detach the pending so the death isn't
            # double-reported; attribute the death here only if the
            # supervisor hasn't already done so.
            with self._pool_cond:
                worker.pending = None
                if not pending.done.is_set():
                    self._deaths[label] = self._deaths.get(label, 0) + 1
            raise WorkerCrashError(
                label, f"worker died before receiving the task: {exc!r}"
            ) from exc
        except Exception:
            # Unpicklable arguments: a body error, not a worker death —
            # the worker is healthy, hand it back.
            self._release_worker(worker)
            raise
        while not pending.done.wait(0.2):
            if self._stop_event.is_set():
                raise WorkerCrashError(label, "worker pool shut down mid-task")
        if pending.outcome == "done":
            return pending.value
        if pending.outcome == "crash":
            # Journal the attempt as failed so a driver resume re-runs it
            # — a crash can never appear as a (torn) completion.
            self.runtime.sessions.journal_failed(task, node)
        assert pending.exc is not None
        raise pending.exc

    def _acquire_worker(
        self, pending: _PendingCall, label: str, node: str
    ) -> _Worker:
        """Block until an idle worker is available and claim it."""
        with self._pool_cond:
            while True:
                if self._stop_event.is_set():
                    raise WorkerCrashError(label, "worker pool shutting down")
                if self._idle:
                    worker = self._idle.popleft()
                    worker.state = _Worker.BUSY
                    worker.pending = pending
                    worker.task_label = label
                    worker.node = node
                    worker.busy_since = time.monotonic()
                    worker.body_started = None
                    worker.kill_reason = None
                    return worker
                self._pool_cond.wait(0.1)

    def _release_worker(self, worker: _Worker) -> None:
        """Return a healthy worker to the idle set (submitter-side path)."""
        with self._pool_cond:
            if worker.state != _Worker.BUSY:
                return
            worker.pending = None
            worker.task_label = ""
            worker.node = ""
            worker.busy_since = None
            worker.body_started = None
            worker.state = _Worker.IDLE
            self._idle.append(worker)
            self._pool_cond.notify_all()

    # ------------------------------------------------------------------
    # Supervisor thread
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop_event.is_set():
            try:
                self._supervise_round()
            except Exception:  # noqa: BLE001 - supervisor must never die
                _log.exception("worker-pool supervisor error")
                time.sleep(self.SUPERVISOR_POLL_S)

    def _supervise_round(self) -> None:
        with self._pool_cond:
            workers = [
                w for w in self._pool_workers if w.state != _Worker.DEAD
            ]
        by_conn = {w.conn: w for w in workers}
        by_sentinel = {w.process.sentinel: w for w in workers}
        try:
            ready = mp_connection.wait(
                list(by_conn) + list(by_sentinel), timeout=self.SUPERVISOR_POLL_S
            )
        except OSError:
            # A connection/sentinel closed mid-wait; the next round sees
            # the updated worker list.
            ready = []
        now = time.monotonic()
        died: List[_Worker] = []
        for obj in ready:
            worker = by_conn.get(obj)
            if worker is not None:
                self._drain_messages(worker, now)
            else:
                died.append(by_sentinel[obj])
        for worker in died:
            # Final messages may still sit in the pipe (e.g. a result
            # sent just before a deadline kill landed): drain first so a
            # completed task is never misreported as crashed.
            self._drain_messages(worker, now)
            self._on_worker_death(worker)
        self._enforce_deadlines(now)

    def _drain_messages(self, worker: _Worker, now: float) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "ready":
                worker.pid = msg[1]
                worker.last_heartbeat = now
                with self._pool_cond:
                    if worker.state == _Worker.STARTING:
                        worker.state = _Worker.IDLE
                        self._idle.append(worker)
                        self._pool_cond.notify_all()
            elif kind == "heartbeat":
                worker.last_heartbeat = now
            elif kind == "ack":
                worker.body_started = now
            elif kind == "done":
                self._on_task_result(worker, value=msg[2], exc=None)
            elif kind == "error":
                self._on_task_result(worker, value=None, exc=_decode_exc(msg[2]))

    def _on_task_result(
        self, worker: _Worker, value: Any, exc: Optional[BaseException]
    ) -> None:
        with self._pool_cond:
            pending = worker.pending
            label = worker.task_label
            worker.pending = None
            worker.task_label = ""
            worker.node = ""
            worker.busy_since = None
            worker.body_started = None
            worker.tasks_done += 1
            if label:
                # A clean outcome (even a body error) proves the task
                # does not kill workers: reset its consecutive count.
                self._deaths.pop(label, None)
            recycle = (
                self.max_tasks_per_worker is not None
                and worker.tasks_done >= self.max_tasks_per_worker
                and not self._stop_event.is_set()
            )
            if not recycle and worker.state == _Worker.BUSY:
                worker.state = _Worker.IDLE
                self._idle.append(worker)
                self._pool_cond.notify_all()
        if pending is not None:
            if exc is None:
                pending.resolve("done", value=value)
            else:
                pending.resolve("error", exc=exc)
        if recycle:
            self._recycle(worker)

    def _recycle(self, worker: _Worker) -> None:
        """Gracefully retire a worker that served its task quota."""
        assert self.runtime is not None
        with self._pool_cond:
            if worker.state == _Worker.DEAD:
                return
            worker.state = _Worker.RETIRING
            if worker in self._idle:
                self._idle.remove(worker)
            if worker in self._pool_workers:
                self._pool_workers.remove(worker)
            self._dead.append(worker)
        try:
            with worker.send_lock:
                worker.conn.send(("stop",))
        except Exception:  # noqa: BLE001 - already gone; make sure
            worker.process.kill()
        self.runtime.resilience.record(
            self.clock(), rsl.WORKER_RECYCLED,
            detail=(
                f"pid {worker.pid} retired after {worker.tasks_done} tasks "
                f"(max_tasks_per_worker={self.max_tasks_per_worker})"
            ),
        )
        self._spawn_worker()

    def _on_worker_death(self, worker: _Worker) -> None:
        assert self.runtime is not None
        exitcode = worker.process.exitcode
        with self._pool_cond:
            if worker.state == _Worker.DEAD:
                return
            was_retiring = worker.state == _Worker.RETIRING
            worker.state = _Worker.DEAD
            if worker in self._idle:
                self._idle.remove(worker)
            if worker in self._pool_workers:
                self._pool_workers.remove(worker)
            if worker not in self._dead:
                self._dead.append(worker)
            pending = worker.pending
            worker.pending = None
            label = worker.task_label
            node = worker.node
            deaths = 0
            poisoned = False
            if (
                pending is not None
                and label
                and worker.kill_reason != "deadline"
            ):
                # Deadline hard-kills are driver-initiated and already
                # handled by the timeout retry path; only genuine crashes
                # count toward the poison threshold.
                deaths = self._deaths.get(label, 0) + 1
                self._deaths[label] = deaths
                poisoned = deaths >= self.poison_threshold
                if poisoned:
                    self._poisoned.add(label)
            self._pool_cond.notify_all()
        if was_retiring:
            # A recycled worker exiting is the expected drain, not a crash.
            return
        now = self.clock()
        detail = f"pid {worker.pid} exitcode {exitcode}"
        if pending is None:
            self.runtime.resilience.record(
                now, rsl.WORKER_CRASH, node=node,
                detail=f"idle worker died ({detail}); respawned",
            )
            exc: Optional[BaseException] = None
        elif worker.kill_reason == "deadline":
            timeout = self.runtime.config.task_timeout_s
            self.runtime.resilience.record(
                now, rsl.WORKER_KILLED, label, node,
                detail=f"hard-killed at the {timeout}s deadline ({detail})",
            )
            exc = TaskTimeoutError(
                f"task {label} exceeded its {timeout}s deadline on {node}; "
                f"worker pid {worker.pid} hard-killed"
            )
        else:
            self.runtime.resilience.record(
                now, rsl.WORKER_CRASH, label, node,
                detail=f"{detail}; task retried on a fresh worker",
            )
            exc = WorkerCrashError(label, detail)
        if pending is not None and poisoned:
            self.runtime.resilience.record(
                now, rsl.POISON_TASK, label, node,
                detail=(
                    f"{deaths} consecutive worker deaths >= "
                    f"threshold {self.poison_threshold}; blacklisted"
                ),
            )
            exc = PoisonTaskError(label, deaths, self.poison_threshold)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if not self._stop_event.is_set():
            self._spawn_worker()
        if pending is not None and exc is not None:
            pending.resolve("crash", exc=exc)

    def _enforce_deadlines(self, now: float) -> None:
        assert self.runtime is not None
        timeout = self.runtime.config.task_timeout_s
        if timeout is None:
            return
        with self._pool_cond:
            overdue = [
                w
                for w in self._pool_workers
                if w.state == _Worker.BUSY
                and w.pending is not None
                and w.kill_reason is None
                and (w.body_started or w.busy_since) is not None
                and now - (w.body_started or w.busy_since) > timeout
            ]
            for worker in overdue:
                worker.kill_reason = "deadline"
        for worker in overdue:
            _log.info(
                "hard-killing worker pid %s: task %s exceeded %ss deadline",
                worker.pid, worker.task_label, timeout,
            )
            worker.process.kill()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pool_status(self) -> List[Dict[str, Any]]:
        """One dict per live worker (pid, state, tasks, heartbeat age)."""
        now = time.monotonic()
        with self._pool_cond:
            return [
                {
                    "pid": w.pid,
                    "state": w.state,
                    "tasks_done": w.tasks_done,
                    "task": w.task_label,
                    "heartbeat_age_s": (
                        round(now - w.last_heartbeat, 3)
                        if w.last_heartbeat is not None
                        else None
                    ),
                }
                for w in self._pool_workers
            ]

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        with self._pool_cond:
            return [w.pid for w in self._pool_workers if w.pid is not None]

    def poisoned_tasks(self) -> List[str]:
        """Labels currently blacklisted as poison tasks."""
        with self._pool_lock:
            return sorted(self._poisoned)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        # Submitter threads parked in _acquire_worker poll the stop event.
        super().shutdown()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        self._drain_pool()

    def _drain_pool(self) -> None:
        """Graceful drain: stop idle workers, kill busy ones, leak nothing."""
        with self._pool_cond:
            workers = list(self._pool_workers)
            self._pool_workers.clear()
            self._idle.clear()
            dead = list(self._dead)
            self._dead.clear()
        for worker in workers:
            if worker.pending is not None:
                worker.pending.resolve(
                    "crash",
                    exc=WorkerCrashError(
                        worker.task_label or "?", "worker pool shut down"
                    ),
                )
                worker.process.kill()
            else:
                try:
                    with worker.send_lock:
                        worker.conn.send(("stop",))
                except Exception:  # noqa: BLE001 - already gone
                    worker.process.kill()
        for worker in workers + dead:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
