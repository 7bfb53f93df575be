"""Executor interface and shared helpers.

An executor owns *when and where task bodies run*; the runtime owns the
graph and data bookkeeping.  Both executors share the same scheduler and
resource pool, so scheduling behaviour (FIFO waves, constraint matching,
fault handling) is identical between real and simulated execution — only
the clock differs.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.future import Future, is_future
from repro.runtime.task_definition import TaskInvocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime


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


class Executor(abc.ABC):
    """Abstract execution engine."""

    def __init__(self) -> None:
        self.runtime: Optional["COMPSsRuntime"] = None

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
        without waiting for the next completion.  The default is a no-op
        (executors whose event loop polls, e.g. during ``wait_for``,
        pick the wake up there).
        """

    def notify_task_resolutions(self) -> None:
        """Task states changed outside the executor's completion paths.

        Called after out-of-band terminal transitions — e.g. the service
        layer abandoning a whole study — so blocked ``wait_for`` calls
        rescan and observe the failures.  Default no-op (polling
        executors pick the change up on their next scan).
        """

    def drain_node(self, node: str, deadline_s: float) -> None:
        """Begin honouring a drain: finish ``node``'s running tasks, then
        retire it; escalate to a node failure at ``deadline_s``.

        The pool state (DRAINING) and data spill are handled by the
        runtime before this is called; executors that track in-flight
        attempts override this to watch for the last one finishing and to
        arm the deadline.  The default retires the node immediately when
        it is idle and otherwise leaves it DRAINING (a conservative,
        deadline-less drain).
        """
        runtime = self.runtime
        if runtime is not None and not self.node_busy(node):
            runtime.finish_drain(node)

    def node_busy(self, node: str) -> bool:
        """Whether the executor has attempts in flight on ``node``."""
        return False

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
    # Shared helpers
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
        """
        return _resolve(task.args), _resolve(task.kwargs)

    @staticmethod
    def fan_out_result(task: TaskInvocation, futures: List[Future], result: Any) -> None:
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
