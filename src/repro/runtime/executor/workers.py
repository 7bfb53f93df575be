"""Worker-process pool (``backend="workers"``).

The thread backend cannot contain a hostile task body: a segfault, an
OOM-kill, or ``os._exit`` takes the whole driver with it, and a
genuinely wedged body keeps its thread forever (CPython threads cannot
be killed).  This backend closes both gaps with the worker model the
paper's runtime (and Tune/Hippo-style trial executors) relies on —
**one long-lived worker process per slot**, each talking to the driver
over its own duplex pipe.  It is the local executor with one thing
replaced: where an attempt's body runs.  The slot thread that runs an
attempt claims an idle worker, sends it the task and waits on that
worker's pipe and process sentinel itself; no other thread watches the
pool.  Dispatch, retries, backoff, speculation, drains and the
starvation reap are the shared attempt lifecycle
(:mod:`repro.runtime.executor.base`), unchanged:

* **Crash containment** — a worker that dies mid-task (segfault, OOM,
  ``sys.exit``/``os._exit``, external ``SIGKILL``) fires its process
  sentinel under the waiting slot thread; the in-flight attempt becomes
  a retryable :class:`~repro.runtime.fault.WorkerCrashError` fed through
  the shared retry decision and node health, a replacement worker is
  spawned, and every other slot keeps running.  A worker that dies while
  idle is found, and replaced, when a slot next claims it.
* **Hard-kill deadlines** — with ``task_timeout_s`` set, the slot
  thread's wait ends at the deadline and a body still running gets its
  worker ``SIGKILL``-ed and respawned: the attempt is a retryable
  ``TaskTimeoutError`` and *no* abandoned thread or process survives.
* **Poison-task quarantine** — a task that kills ``poison_threshold``
  consecutive workers is blacklisted: further attempts raise a
  :class:`~repro.runtime.fault.PoisonTaskError`, which the retry
  decision treats as terminal, instead of burning the retry budget
  killing worker after worker.
* **Worker recycling** — after ``max_tasks_per_worker`` completed tasks
  a worker is drained gracefully and replaced, bounding native-library
  leak accumulation over multi-day studies.

IPC protocol (pipe per worker; parent → child ``task``/``stop``,
child → parent ``ack``/``done``/``error``): a worker has at most one
task in flight, so messages carry no sequence number.  The child acks
each task before running it (deadlines measure body time, not time in
the pipe), and results/errors travel back pickled.  Task functions are
shipped by reference (``module:qualname``, unwrapping ``@task``
wrappers via ``__wrapped__``) with a plain-pickle fast path.

Crash consistency: a crashed or deadline-killed attempt is journalled as
``failed`` — a ``completed`` record is only ever written by the driver
*after* the result landed in driver memory, so a worker death can never
fabricate a torn completion.  Every decision is a structured
:class:`~repro.runtime.resilience.ResilienceLog` event
(``worker_crash`` / ``worker_killed`` / ``worker_recycled`` /
``poison_task``) surfaced through ``runtime.analysis()`` and the CLI
report.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing
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
def _worker_main(conn) -> None:
    """Long-lived worker loop: recv task → ack → run → send result.

    ``Exception`` from a body is *contained* (reported back, worker keeps
    serving); ``BaseException`` (``sys.exit``, ``KeyboardInterrupt``) is
    allowed to kill the process — the waiting slot thread handles it like
    any other worker death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        import faulthandler

        # An inherited faulthandler would dump this child's threads into
        # the driver's stderr on every contained crash; the slot thread's
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
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        _, func_blob, args, kwargs, hang, slow = msg
        conn.send(("ack",))
        if hang:
            # Injected wedge: sleep until the deadline SIGKILLs us.
            while True:
                time.sleep(3600.0)
        try:
            func = _decode_func(func_blob)
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            if slow > 1.0:
                time.sleep((slow - 1.0) * (time.perf_counter() - t0))
        except Exception as exc:  # noqa: BLE001 - contained body error
            conn.send(("error", _encode_exc(exc)))
            continue
        try:
            conn.send(("done", result))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            conn.send(("error", _encode_exc(
                RuntimeError(f"task result is not picklable: {exc!r}")
            )))


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _Worker:
    """Driver-side record of one worker process."""

    __slots__ = ("process", "conn", "task_label", "tasks_done")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Label of the task in flight; ``""`` while idle.
        self.task_label = ""
        self.tasks_done = 0


class WorkerPoolExecutor(LocalExecutor):
    """Worker-pool variant of the local executor.

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
        self._pool_cond = threading.Condition()
        #: Live workers, idle or busy.
        self._pool_workers: List[_Worker] = []
        self._idle: Deque[_Worker] = deque()
        #: Recycled worker processes told to stop and not yet seen to
        #: exit; joined at shutdown.
        self._retired: List[Any] = []
        #: task label → consecutive worker deaths it caused.
        self._deaths: Dict[str, int] = {}
        #: Blacklisted task labels (terminal PoisonTaskError).
        self._poisoned: Set[str] = set()
        self._wids = itertools.count(1)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _bind_backend(self, n: int) -> None:
        for _ in range(n):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        """Start one worker process and put it in the idle set.

        Slot threads spawn replacements, so spawns hold the pool lock: a
        fork from another thread before ``child_conn.close()`` would copy
        this worker's pipe and sentinel ends and hide its death.
        """
        with self._pool_cond:
            if self._stop_event.is_set():
                return
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                name=f"repro-pool-{next(self._wids)}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(process, parent_conn)
            self._pool_workers.append(worker)
            self._idle.append(worker)
            self._pool_cond.notify()

    # ------------------------------------------------------------------
    # Body execution (slot threads)
    # ------------------------------------------------------------------
    def _execute_body(
        self, task: TaskInvocation, assignment: Assignment, hang: bool, slow: float
    ):
        assert self.runtime is not None
        label = task.label
        node = assignment.allocation.node
        with self._pool_cond:
            if label in self._poisoned:
                deaths = self._deaths.get(label, 0)
                raise PoisonTaskError(label, deaths, self.poison_threshold)
        args, kwargs = self.resolve_arguments(task)
        func_blob = _encode_func(assignment.implementation.func)
        worker = self._claim_worker(label)
        try:
            worker.conn.send(("task", func_blob, args, kwargs, hang, slow))
        except OSError:
            pass  # The worker died; its sentinel fires in _await_reply.
        except Exception:
            # Unpicklable arguments: a body error, not a worker death —
            # the worker is healthy, hand it back.
            self._release_worker(worker, replied=False)
            raise
        reply = self._await_reply(worker, label)
        if reply[0] == "done":
            self._release_worker(worker, replied=True)
            return reply[1]
        if reply[0] == "error":
            self._release_worker(worker, replied=True)
            raise _decode_exc(reply[1])
        exc = self._worker_lost(worker, label, node, deadline=reply[0] == "deadline")
        # Journal the attempt as failed so a driver resume re-runs it —
        # a crash can never appear as a (torn) completion.
        self.runtime.sessions.journal_failed(task, node)
        raise exc

    def _claim_worker(self, label: str) -> _Worker:
        """Block until an idle worker is free and claim it for ``label``.

        An idle worker that died since its last task is found here: it is
        recorded, replaced, and the claim goes on.
        """
        assert self.runtime is not None
        while True:
            with self._pool_cond:
                while True:
                    if self._stop_event.is_set():
                        raise WorkerCrashError(label, "worker pool shutting down")
                    if self._idle:
                        break
                    self._pool_cond.wait(0.1)
                worker = self._idle.popleft()
                if worker.process.is_alive():
                    worker.task_label = label
                    return worker
            self.runtime.resilience.record(
                self.clock(), rsl.WORKER_CRASH,
                detail=f"idle worker died ({self._bury(worker)}); respawned",
            )

    def _await_reply(self, worker: _Worker, label: str) -> Tuple:
        """Wait for ``worker``'s reply to the task just sent.

        Returns ``("done", value)`` or ``("error", exc_blob)``, else
        ``("crash",)`` once the worker died or ``("deadline",)`` once the
        body outlived ``task_timeout_s``.  The deadline runs from the
        send, and from the child's ``ack`` once that arrives.
        """
        assert self.runtime is not None
        timeout = self.runtime.config.task_timeout_s
        conn = worker.conn
        waitables = (conn, worker.process.sentinel)
        started = time.monotonic()
        while True:
            # Wake at least every 0.2 s to notice a shutdown.
            wait_s = 0.2
            if timeout is not None:
                wait_s = max(0.0, min(wait_s, started + timeout - time.monotonic()))
            if mp_connection.wait(waitables, wait_s):
                # Read the pipe before believing the sentinel: a reply
                # sent just before the worker died still counts.
                try:
                    msg = conn.recv() if conn.poll() else ("crash",)
                except (EOFError, OSError):
                    msg = ("crash",)
                if msg[0] != "ack":
                    return msg
                started = time.monotonic()
            elif self._stop_event.is_set():
                raise WorkerCrashError(label, "worker pool shut down mid-task")
            elif timeout is not None and time.monotonic() - started >= timeout:
                _log.info(
                    "hard-killing worker pid %s: task %s exceeded %ss deadline",
                    worker.process.pid, label, timeout,
                )
                return ("deadline",)

    def _release_worker(self, worker: _Worker, replied: bool) -> None:
        """Hand a healthy worker back to the idle set, or retire it.

        ``replied``: the task ran to a reply (even a body error), which
        counts toward recycling and proves the task does not kill
        workers, so its consecutive-death count resets.
        """
        assert self.runtime is not None
        with self._pool_cond:
            label, worker.task_label = worker.task_label, ""
            if replied:
                worker.tasks_done += 1
                self._deaths.pop(label, None)
            retire = (
                replied
                and self.max_tasks_per_worker is not None
                and worker.tasks_done >= self.max_tasks_per_worker
            )
            if not retire:
                self._idle.append(worker)
                self._pool_cond.notify()
                return
            self._pool_workers.remove(worker)
            # Reap the ones that exited, so a long study holds few.
            self._retired = [p for p in self._retired if p.is_alive()]
            self._retired.append(worker.process)
        try:
            worker.conn.send(("stop",))
        except OSError:  # already gone; make sure
            worker.process.kill()
        worker.conn.close()
        self.runtime.resilience.record(
            self.clock(), rsl.WORKER_RECYCLED,
            detail=(
                f"pid {worker.process.pid} retired after {worker.tasks_done} "
                f"tasks (max_tasks_per_worker={self.max_tasks_per_worker})"
            ),
        )
        self._spawn_worker()

    def _bury(self, worker: _Worker) -> str:
        """Reap a dead or overdue worker and spawn its replacement.

        Returns the ``pid … exitcode …`` detail for its event.
        """
        with self._pool_cond:
            self._pool_workers.remove(worker)
        # A no-op on a process that already died; ends an overdue one.
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        self._spawn_worker()
        return f"pid {worker.process.pid} exitcode {worker.process.exitcode}"

    def _worker_lost(
        self, worker: _Worker, label: str, node: str, deadline: bool
    ) -> BaseException:
        """Replace the worker that died running ``label``; the attempt's error.

        A deadline kill is the driver's own doing, already handled by the
        timeout retry path: only genuine crashes count toward the poison
        threshold.
        """
        assert self.runtime is not None
        detail = self._bury(worker)
        record = self.runtime.resilience.record
        now = self.clock()
        if deadline:
            timeout = self.runtime.config.task_timeout_s
            record(
                now, rsl.WORKER_KILLED, label, node,
                detail=f"hard-killed at the {timeout}s deadline ({detail})",
            )
            return TaskTimeoutError(
                f"task {label} exceeded its {timeout}s deadline on {node}; "
                f"worker pid {worker.process.pid} hard-killed"
            )
        with self._pool_cond:
            deaths = self._deaths[label] = self._deaths.get(label, 0) + 1
            poisoned = deaths >= self.poison_threshold
            if poisoned:
                self._poisoned.add(label)
        record(
            now, rsl.WORKER_CRASH, label, node,
            detail=f"{detail}; task retried on a fresh worker",
        )
        if not poisoned:
            return WorkerCrashError(label, detail)
        record(
            now, rsl.POISON_TASK, label, node,
            detail=(
                f"{deaths} consecutive worker deaths >= "
                f"threshold {self.poison_threshold}; blacklisted"
            ),
        )
        return PoisonTaskError(label, deaths, self.poison_threshold)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pool_status(self) -> List[Dict[str, Any]]:
        """One dict per live worker (pid, state, tasks done, task)."""
        with self._pool_cond:
            return [
                {
                    "pid": w.process.pid,
                    "state": "busy" if w.task_label else "idle",
                    "tasks_done": w.tasks_done,
                    "task": w.task_label,
                }
                for w in self._pool_workers
            ]

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        with self._pool_cond:
            return [w.process.pid for w in self._pool_workers]

    def poisoned_tasks(self) -> List[str]:
        """Labels currently blacklisted as poison tasks."""
        with self._pool_cond:
            return sorted(self._poisoned)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        # Slot threads claiming or waiting on a worker poll the stop event.
        super().shutdown()
        self._drain_pool()

    def _drain_pool(self) -> None:
        """Stop idle workers, kill busy ones, join all: leak nothing."""
        with self._pool_cond:
            workers, self._pool_workers = self._pool_workers, []
            self._idle.clear()
            retired, self._retired = self._retired, []
        for worker in workers:
            if worker.task_label:
                worker.process.kill()
                continue
            try:
                worker.conn.send(("stop",))
            except OSError:  # already gone
                worker.process.kill()
        for process in [w.process for w in workers] + retired:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        for worker in workers:
            worker.conn.close()
