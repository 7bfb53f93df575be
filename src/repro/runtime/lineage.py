"""Lineage: the one path that fails a task or re-runs its writers.

Two primitives, shared by every caller that changes a task's fate after
it entered the graph:

* :func:`fail_task` — a terminal failure: history line, ``FAILED``, the
  error, and a ``failed`` record in the task's study journal.
* :func:`rerun_writers` — re-execution of writers whose data is gone:
  running consumers are aborted, the writers' data versions and futures
  invalidated, their results reset, and the batch re-enters the graph
  (tombstoned in the dispatch engine, sealed records dropped).

:func:`reacquire` brings values released to the reuse cache back before
a task reads them, and re-runs a producer whose entry is gone.

Their callers each keep their own resilience event and detail text:
:func:`fail_descendants` (a producer died terminally), the executors'
give-up path, :meth:`StudySessions.abandon
<repro.runtime.sessions.StudySessions.abandon>` (a whole study),
:func:`recover_lost_data` (node loss) and :func:`recompute_corrupt`
(an output with no intact copy left).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime import resilience as rsl
from repro.runtime.fault import UpstreamFailureError
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.util.logging_utils import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime

_log = get_logger("runtime.lineage")


def fail_task(
    runtime: "COMPSsRuntime",
    task: TaskInvocation,
    exc: BaseException,
    history: str = "",
    node: str = "",
) -> None:
    """Fail ``task`` terminally with ``exc`` and journal the failure.

    ``history`` (when non-empty) is appended to the attempt history
    first; ``node`` names the failed attempt's node in the journal
    record (default: the task's own node).
    """
    if history:
        task.add_history(history)
    task.state = TaskState.FAILED
    task.error = exc
    runtime.sessions.journal_failed(task, node)


def rerun_writers(
    runtime: "COMPSsRuntime",
    writers: Sequence[TaskInvocation],
    extra_consumers: Sequence[TaskInvocation] = (),
) -> Tuple[List[str], int]:
    """Send ``writers`` back through the graph to re-materialise their data.

    RUNNING consumers whose executor can abort them are aborted (their
    bodies would resolve the invalidated inputs); ``extra_consumers`` are
    not-yet-running consumers the caller already pulled back from
    dispatch.  Returns the invalidated version labels and the number of
    aborted consumers.  Call with the runtime lock held.
    """
    graph = runtime.graph
    to_rerun: Dict[int, TaskInvocation] = {t.task_id: t for t in writers}
    if runtime.release is not None:
        # The writers read their inputs again.
        reacquire(runtime, [
            p for t in to_rerun.values() for p in graph.predecessors(t)
            if p.task_id not in to_rerun
        ])
    aborted: Dict[int, TaskInvocation] = {}
    for t in to_rerun.values():
        for s in graph.successors(t):
            if (
                s.state == TaskState.RUNNING
                and s.task_id not in to_rerun
                and s.task_id not in aborted
                and runtime.executor.abort_task(s)
            ):
                aborted[s.task_id] = s
    labels = sorted(
        runtime.access.invalidate_versions_written_by(to_rerun.values())
    )
    integrity = runtime.integrity
    for t in to_rerun.values():
        if integrity is not None:
            integrity.discard(t)
        for fut in runtime.access.futures_of(t):
            fut.invalidate()
        t.result = None
        t.start_time = t.end_time = None
    batch = list(to_rerun.values())
    for consumer in extra_consumers:
        if consumer.task_id not in to_rerun and consumer.task_id not in aborted:
            batch.append(consumer)
    batch += aborted.values()
    graph.invalidate(batch)
    # Entries already handed to the dispatch engine's class heaps cannot
    # be removed from the graph's ready deque above; tombstone them, and
    # the queued consumers the invalidation sent back to waiting, so a
    # scheduling round does not place a task whose inputs are gone.
    runtime.dispatcher.purge(
        [t for t in batch if t.state != TaskState.READY]
        + [
            s for t in to_rerun.values() for s in graph.successors(t)
            if s.state == TaskState.SUBMITTED
        ]
    )
    return labels, len(aborted)


def preload(
    runtime: "COMPSsRuntime", tasks: Sequence[TaskInvocation]
) -> Dict[int, Any]:
    """Verified reads of the released values among ``tasks``, by task id.

    Each is :data:`~repro.runtime.reuse.MISS` when its entry is gone.
    Call *without* the runtime lock and hand the result to
    :func:`reacquire`: a verified read hashes the whole entry, and other
    studies' submissions and completions keep flowing meanwhile.
    """
    release = runtime.release
    loaded: Dict[int, Any] = {}
    for t in tasks:
        if t.task_id not in loaded and release.is_released(t):
            loaded[t.task_id] = release.load(t)
    return loaded


def reacquire(
    runtime: "COMPSsRuntime",
    tasks: Sequence[TaskInvocation],
    loaded: Optional[Dict[int, Any]] = None,
) -> int:
    """Bring the released values of ``tasks`` back into driver memory.

    A value :func:`preload` read (``loaded``) is installed if its task
    is still released; a task released since is read here, under the
    lock.  A producer whose entry is gone (evicted, corrupt,
    quarantined) re-runs through :func:`rerun_writers`, which
    reacquires that producer's own inputs in turn — the recovery path
    is the one that reads under the lock.  Returns the number of
    producers sent back to run (the caller wakes the executor).  Call
    with the runtime lock held.
    """
    release = runtime.release
    if release is None:
        return 0
    from repro.runtime.reuse import MISS

    loaded = loaded or {}
    lost = []
    for t in tasks:
        if not release.is_released(t):
            continue
        value = loaded[t.task_id] if t.task_id in loaded else release.load(t)
        if value is MISS:
            lost.append(t)
        else:
            release.install(t, value)
    if lost:
        rerun_writers(runtime, lost)
        now = runtime.executor.clock()
        for t in lost:
            runtime.resilience.record(
                now, rsl.LINEAGE_RECOVERY, t.label, "",
                detail="released value left the reuse cache; re-executing",
            )
    return len(lost)


def _written(runtime: "COMPSsRuntime", task: TaskInvocation) -> str:
    """Comma-joined labels of the versions ``task`` writes, or its label."""
    written = ",".join(v.label for v in runtime.access.versions_written_by(task))
    return written or task.label


def fail_descendants(
    runtime: "COMPSsRuntime", task: TaskInvocation, now: float
) -> List[TaskInvocation]:
    """Cancel every unfinished transitive consumer of a dead task.

    Called when ``task`` fails *terminally* (retry budget exhausted, or
    reaped by the starvation watchdog).  Its consumers can never become
    ready — without this they would sit in SUBMITTED forever and
    ``wait_for`` would hang (simulated: a "simulation stalled" crash)
    instead of surfacing the root failure.  Each victim fails with
    :class:`UpstreamFailureError` chained to the producer's error.
    """
    cause = task.error or RuntimeError("unknown")
    victims: List[TaskInvocation] = []
    with runtime.lock:
        for dep in runtime.graph.descendants(task):
            if dep.state in (TaskState.DONE, TaskState.FAILED):
                continue
            exc = UpstreamFailureError(dep.label, task.label, cause)
            fail_task(runtime, dep, exc, f"cancelled: {exc}")
            runtime.resilience.record(
                now, rsl.UPSTREAM_CANCELLED, dep.label, "",
                detail=f"producer {task.label} failed terminally",
            )
            victims.append(dep)
    return victims


def recover_lost_data(runtime: "COMPSsRuntime", node: str) -> List[str]:
    """Invalidate data versions lost with ``node``; re-run their lineage.

    Completed tasks whose results were resident on ``node`` (produced
    there and still needed by a not-yet-done consumer) lose their data.
    Each such task is re-executed — unless its output survives in the
    checkpoint store, in which case it is restored from disk for free.
    The re-execution set is *minimal* (Hippo-style suffix replay): an
    ancestor re-runs only if its own output was also destroyed (it too
    ran on the lost node and is needed to rebuild a descendant);
    ancestors whose outputs survive on healthy nodes are left alone.

    Returns the labels of the destroyed data versions (``d3v2``-style),
    which the caller records on the ``node_lost`` resilience event.
    """
    with runtime.lock:
        graph = runtime.graph
        done_on_node = [
            t for t in graph.tasks()
            if t.state == TaskState.DONE and t.node == node
        ]
        # Outputs that survive on disk are not "resident on the node" —
        # but a spill only counts as surviving if it passes verification;
        # trusting a corrupt spill here would skip the recompute AND
        # restore garbage.  Each task's spill lives in its study's store.
        destroyed: Dict[int, TaskInvocation] = {}
        for t in done_on_node:
            store = runtime.sessions.store_for(t)
            if (
                store is None
                or t.task_key is None
                or store.verify(t.task_key) != "ok"
            ):
                destroyed[t.task_id] = t
        # Seed: destroyed tasks whose output is still needed downstream.
        stack = [
            t for t in destroyed.values()
            if any(s.state != TaskState.DONE for s in graph.successors(t))
        ]
        # Minimal ancestor closure: a predecessor re-runs only if it was
        # destroyed too (its data is gone and a descendant needs it).
        to_rerun: Dict[int, TaskInvocation] = {}
        while stack:
            t = stack.pop()
            if t.task_id in to_rerun:
                continue
            to_rerun[t.task_id] = t
            for p in graph.predecessors(t):
                if p.task_id in destroyed and p.task_id not in to_rerun:
                    stack.append(p)
        if not to_rerun:
            return []
        labels, n_aborted = rerun_writers(runtime, list(to_rerun.values()))
        for t in sorted(to_rerun.values(), key=lambda t: t.task_id):
            runtime.resilience.record(
                runtime.executor.clock(), rsl.LINEAGE_RECOVERY, t.label, node,
                detail=f"re-materialising {_written(runtime, t)}",
            )
    _log.info(
        "node %s lost %d data version(s); re-executing %d task(s) "
        "(+%d aborted consumer(s))",
        node, len(labels), len(to_rerun), n_aborted,
    )
    return labels


def recompute_corrupt(
    runtime: "COMPSsRuntime",
    writers: Sequence[TaskInvocation],
    extra_consumers: Sequence[TaskInvocation] = (),
) -> List[str]:
    """Re-execute ``writers`` whose outputs have no intact copy left.

    The integrity escalation path: same lineage machinery as node loss,
    with ``extra_consumers`` the not-yet-running consumers the caller
    pulled back from dispatch (the simulated executor passes the task
    whose input staging detected the corruption).  Returns the
    invalidated version labels.
    """
    with runtime.lock:
        labels, n_aborted = rerun_writers(runtime, writers, extra_consumers)
        unique = {t.task_id: t for t in writers}
        rerun = [unique[tid] for tid in sorted(unique)]
        now = runtime.executor.clock()
        for t in rerun:
            runtime.resilience.record(
                now, rsl.INTEGRITY_RECOMPUTE, t.label, t.node or "",
                detail=f"no good copy of {_written(runtime, t)}; "
                "re-executing writer",
            )
        if runtime.integrity is not None:
            runtime.integrity.recomputes += len(rerun)
    _log.info(
        "integrity: %d corrupt version(s) unrepairable; re-executing "
        "%d writer(s) (+%d aborted consumer(s))",
        len(labels), len(rerun), n_aborted,
    )
    return labels
