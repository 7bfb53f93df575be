"""Futures returned by task calls.

A :class:`Future` is an opaque placeholder for a task result; passing one
to another task creates a dependency edge, and ``compss_wait_on`` resolves
it to the actual value (paper §4).  Multi-return tasks yield one future
per return slot.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task_definition import TaskInvocation

_UNSET = object()


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
        """The resolved value; raises if the task has not completed."""
        if self._value is _UNSET:
            raise RuntimeError(
                f"future of {self.invocation.label} accessed before completion; "
                "use compss_wait_on()"
            )
        return self._value

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<Future {self.invocation.label}[{self.index}] {state}>"


def is_future(obj: Any) -> bool:
    """True if ``obj`` is a runtime future."""
    return isinstance(obj, Future)
