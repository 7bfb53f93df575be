"""Minimal discrete-event simulation engine.

The engine keeps a virtual clock and a priority queue of timestamped
callbacks.  Ties are broken by insertion order so simulations are fully
deterministic.  The simulated executor
(:mod:`repro.runtime.executor.simulated`) schedules task completions,
data transfers and failures as events here.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

Action = Callable[..., Any]


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation is lazy: the entry stays in the heap but is skipped when
    popped (standard heapq idiom — removal from the middle of a heap is
    O(n), skipping is O(log n) amortised).
    """

    __slots__ = ("time", "seq", "action", "args", "cancelled", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Action,
        label: str = "",
        args: Tuple[Any, ...] = (),
    ):
        self.time = time
        self.seq = seq
        self.action: Optional[Action] = action
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        self.cancelled = True
        self.action = None  # drop the reference so closures can be collected

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {self.label or 'event'}, {state})"


class DiscreteEventSimulator:
    """A virtual clock plus a future-event list.

    Example
    -------
    >>> sim = DiscreteEventSimulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 5.0]
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0  #: virtual time (s); only the engine moves it
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._processed = 0

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        action: Action,
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> EventHandle:
        """Schedule ``action`` to fire ``delay`` seconds from now.

        ``args`` are stored on the handle and passed positionally when the
        event fires — cheaper than closing over them in a lambda on hot
        paths that schedule millions of events.  A negative or NaN
        ``delay`` raises :class:`ValueError`.
        """
        if not delay >= 0:  # not via schedule_at: one call per simulated attempt
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        time = self.now + delay
        handle = EventHandle(time, next(self._seq), action, label, args)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def schedule_at(
        self,
        time: float,
        action: Action,
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> EventHandle:
        """Schedule ``action`` at absolute virtual ``time`` (>= now, not NaN)."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, next(self._seq), action, label, args)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def step(self) -> bool:
        """Fire the next pending event.  Returns False when queue is empty."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled or handle.action is None:
                continue
            self.now = time
            action, handle.action = handle.action, None
            action(*handle.args)
            self._processed += 1
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if the queue is empty.

        Skips (and discards) lazily-cancelled entries at the head so the
        answer reflects a live event.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].action is None:
                heapq.heappop(heap)
                continue
            return head[0]
        return None

    def step_batch(self) -> int:
        """Fire *all* events sharing the earliest pending timestamp.

        Events fire strictly in ``(time, seq)`` order, one at a time, so
        this is observably identical to calling :meth:`step` repeatedly —
        including when a fired event schedules new work at the same
        timestamp (the new event has a larger seq and is picked up by the
        inner loop in order).  Returns the number of events fired (0 when
        the queue is empty).

        This is the k-way batch pop that lets callers amortise their
        per-wake bookkeeping over thousands of homogeneous same-timestamp
        completions instead of paying it per event.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        batch_time: Optional[float] = None
        while heap:
            if batch_time is not None and heap[0][0] != batch_time:
                break
            time, _, handle = pop(heap)
            if handle.action is None:
                continue
            if batch_time is None:
                batch_time = time
                self.now = time
            action, handle.action = handle.action, None
            action(*handle.args)
            fired += 1
        self._processed += fired
        return fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in timestamp order.

        Parameters
        ----------
        until:
            If given, stop once the next event is strictly later than
            ``until`` (the clock is advanced to ``until``).
        max_events:
            Safety valve — raise :class:`RuntimeError` if more than this
            many events fire (guards against self-rescheduling loops).
        """
        fired = 0
        while self._heap:
            next_time = self._heap[0][0]
            if until is not None and next_time > until:
                self.now = max(self.now, until)
                return
            if not self.step():
                break
            fired += 1
            if max_events is not None and fired > max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}; "
                    "likely a self-rescheduling event loop"
                )
        if until is not None:
            self.now = max(self.now, until)

    def advance_to(self, time: float) -> None:
        """Advance the clock without firing events (time must not regress)."""
        if not time >= self.now:
            raise ValueError(f"cannot move clock backwards: {time} < {self.now}")
        self.now = time
