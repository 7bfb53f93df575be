"""Trace recording (the Extrae stand-in).

The recorder is deliberately dumb — executors push :class:`TaskRecord`
intervals into a list — so that recording overhead is negligible and
both the real and the simulated executor share it.  Tracing is optional (the paper: "both
tracing and graph generation create a performance overhead … easily
turned off by a simple flag").

Zero-cost-when-off contract: executors must gate on
:attr:`TraceRecorder.enabled` *before* constructing a
:class:`TaskRecord`, so the traces-off fast path
pays neither object construction nor a method call per task.  The
recorder's own no-op guard remains only as a safety net for callers
outside the dispatch hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class TaskRecord:
    """One task attempt's occupation of concrete resources."""

    task_label: str
    task_name: str
    node: str
    cpu_ids: Tuple[int, ...]
    gpu_ids: Tuple[int, ...]
    start: float
    end: float
    success: bool = True
    attempt: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"record for {self.task_label} ends before it starts "
                f"({self.end} < {self.start})"
            )


class TraceRecorder:
    """Collects task records.

    Parameters
    ----------
    enabled:
        When False every record call is a no-op (the paper's traces-off
        mode used for the timing runs of Fig. 9).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[TaskRecord] = []

    def record_task(self, record: TaskRecord) -> None:
        """Store one completed (or failed) task attempt interval."""
        if self.enabled:
            self.records.append(record)

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self.records.clear()

    @property
    def makespan(self) -> float:
        """Latest end minus earliest start over all records (0 if empty)."""
        if not self.records:
            return 0.0
        start = min(r.start for r in self.records)
        end = max(r.end for r in self.records)
        return end - start

    def records_for_node(self, node: str) -> List[TaskRecord]:
        return [r for r in self.records if r.node == node]
