"""Futures returned by task calls.

A :class:`Future` is an opaque placeholder for a task result; passing one
to another task creates a dependency edge, and ``compss_wait_on`` resolves
it to the actual value (paper §4).  Multi-return tasks yield one future
per return slot.

A future whose value was released to the reuse cache (see
:class:`~repro.runtime.reuse.StageRelease`) holds a :class:`HeldByCache`
stand-in instead: it is still ``done``, and reading it reloads the
value through the cache's verified read.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task_definition import TaskInvocation

_UNSET = object()


class HeldByCache:
    """Stand-in for a value released from driver memory to the reuse cache.

    ``read(task)`` returns the task's whole result, re-verified from its
    cache entry, or raises when the entry is gone.  One instance per
    runtime marks every released future and task record.
    """

    __slots__ = ("read",)

    def __init__(self, read: Callable[["TaskInvocation"], Any]) -> None:
        self.read = read


class Future:
    """Placeholder for the (``index``-th) result of a task invocation.

    ``data_id`` is the ``d<N>`` of the slot's datum, reserved by
    :meth:`AccessProcessor.register_output_future
    <repro.runtime.access_processor.AccessProcessor.register_output_future>`
    (None until then, and again once a streaming free released it).
    """

    __slots__ = ("invocation", "index", "data_id", "_value")

    def __init__(self, invocation: "TaskInvocation", index: int = 0):
        self.invocation = invocation
        self.index = index
        self.data_id: Optional[int] = None
        self._value: Any = _UNSET

    @property
    def done(self) -> bool:
        """Whether the producing task has completed successfully."""
        return self._value is not _UNSET

    def set_result(self, value: Any) -> None:
        """Fill the future (called by the runtime on task completion)."""
        self._value = value

    def invalidate(self) -> None:
        """Forget the resolved value (lineage recovery after data loss).

        The producing task is being re-executed; consumers resolving this
        future block again until the replacement value lands.
        """
        self._value = _UNSET

    def result(self) -> Any:
        """The resolved value; raises if the task has not completed.

        A value released to the reuse cache is read back from its
        verified entry (and not kept: the future stays released).
        """
        value = self._value
        if value is _UNSET:
            raise RuntimeError(
                f"future of {self.invocation.label} accessed before completion; "
                "use compss_wait_on()"
            )
        if type(value) is HeldByCache:
            task = self.invocation
            value = value.read(task)
            if task.definition.n_returns != 1:
                value = list(value)[self.index]
        return value

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<Future {self.invocation.label}[{self.index}] {state}>"


def slot_futures(outputs: Any) -> Tuple[Future, ...]:
    """A task's ``outputs`` (one future, a tuple or None) as a tuple."""
    if type(outputs) is Future:
        return (outputs,)
    return outputs or ()


def is_future(obj: Any) -> bool:
    """True if ``obj`` is a runtime future."""
    return isinstance(obj, Future)


def collect_futures(obj: Any, out: List[Future]) -> None:
    """Append every future in ``obj`` (scalar, list, tuple, set, dict, nested)."""
    if isinstance(obj, Future):
        out.append(obj)
    elif isinstance(obj, (list, tuple, set)):
        for item in obj:
            if type(item) is Future:  # no recursive call for a plain future
                out.append(item)
            else:
                collect_futures(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            collect_futures(item, out)


def substitute(obj: Any) -> Any:
    """``obj`` with every future replaced by its resolved value."""
    if isinstance(obj, Future):
        return obj.result()
    if isinstance(obj, list):
        # A plain future's value is read in place; only an unresolved or
        # released one goes through result() (which raises or reloads).
        # The slot is read once: a release may swap in the stand-in
        # between two reads.
        return [
            (
                v
                if (v := i._value) is not _UNSET and type(v) is not HeldByCache
                else i.result()
            )
            if type(i) is Future else substitute(i)
            for i in obj
        ]
    if isinstance(obj, tuple):
        return tuple(substitute(i) for i in obj)
    if isinstance(obj, set):
        return {substitute(i) for i in obj}
    if isinstance(obj, dict):
        return {k: substitute(v) for k, v in obj.items()}
    return obj
