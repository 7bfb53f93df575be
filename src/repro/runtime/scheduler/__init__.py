"""Pluggable task schedulers."""

from repro.runtime.scheduler.base import Assignment, Scheduler
from repro.runtime.scheduler.fifo import FIFOScheduler
from repro.runtime.scheduler.priority import PriorityScheduler
from repro.runtime.scheduler.locality import LocalityScheduler
from repro.runtime.scheduler.lpt import LPTScheduler

SCHEDULERS = {
    "fifo": FIFOScheduler,
    "priority": PriorityScheduler,
    "locality": LocalityScheduler,
    "lpt": LPTScheduler,
}


def get_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by name (``fifo``/``priority``/``locality``/``lpt``)."""
    try:
        return SCHEDULERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        ) from None


__all__ = [
    "Assignment",
    "Scheduler",
    "FIFOScheduler",
    "PriorityScheduler",
    "LocalityScheduler",
    "LPTScheduler",
    "get_scheduler",
]
