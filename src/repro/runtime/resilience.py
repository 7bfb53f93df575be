"""Resilience subsystem: the failure-handling stack above plain retries.

The paper's fault-tolerance story (§3/§4) ends at "retry on the same
node, then resubmit elsewhere".  A long-running HPO service additionally
has to survive *hung* tasks (deadlines), *stragglers* (speculative
re-execution, the tail problem of Fig. 5 attacked at the executor level),
and *chronically flaky nodes* (health tracking with quarantine and
probe-back).  This module holds the executor-independent pieces:

- :class:`ResilienceEvent` / :class:`ResilienceLog` — a structured,
  deterministic record of every resilience decision, surfaced through
  ``runtime.analysis()`` and :mod:`repro.runtime.stats`.
- :class:`StragglerDetector` — running per-task-name medians; a task
  running past ``multiplier × median`` is a straggler.
- :class:`NodeHealth` — per-node failure/timeout accounting with a
  failure-rate quarantine, cool-down, and probation ("probe") re-entry.

Timeout/backoff policy lives on :class:`repro.runtime.fault.RetryPolicy`
and :class:`repro.runtime.config.RuntimeConfig`; the executors consume
all of it.
"""

from __future__ import annotations

import statistics
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.util.logging_utils import get_logger
from repro.util.validation import check_in_range, check_positive

_log = get_logger("runtime.resilience")

# Event kinds (module constants so call sites don't typo strings).
TIMEOUT = "timeout"
BACKOFF_WAIT = "backoff_wait"
SPECULATION_LAUNCHED = "speculation_launched"
SPECULATION_WON = "speculation_won"
SPECULATION_CANCELLED = "speculation_cancelled"
QUARANTINE = "quarantine"
PROBE = "probe"
TRIAL_RETRY = "trial_retry"
NODE_LOST = "node_lost"
LINEAGE_RECOVERY = "lineage_recovery"
JOURNAL_TRUNCATED = "journal_truncated"
CHECKPOINT_RESTORE = "checkpoint_restore"
#: Supervised worker-pool events (``backend="workers"``): a worker
#: process died under a task (crash containment), was hard-killed at the
#: task deadline, was retired after ``max_tasks_per_worker`` completions,
#: or a task was blacklisted for killing too many consecutive workers.
WORKER_CRASH = "worker_crash"
WORKER_KILLED = "worker_killed"
WORKER_RECYCLED = "worker_recycled"
POISON_TASK = "poison_task"
#: Data-integrity events: a consumed version's checksum mismatched its
#: write-time record, a cross-node transfer tore (with per-attempt
#: retries), a corrupt/unreachable output was re-fetched from a replica,
#: or — with no good copy left — its writer was re-executed through the
#: lineage machinery.
DATA_CORRUPT = "data_corrupt"
TRANSFER_FAILED = "transfer_failed"
TRANSFER_RETRY = "transfer_retry"
REPLICA_REPAIR = "replica_repair"
INTEGRITY_RECOMPUTE = "integrity_recompute"
#: Cluster-churn events: a node entered graceful drain (finish running
#: tasks, accept no new placements, spill resident data), finished
#: draining cleanly, blew its drain deadline (escalated to ``fail_node``
#: so lineage recovery takes over), received a spot-preemption notice,
#: rejoined the cluster after a loss, or a whole constraint class lost
#: its last candidate node (starvation watchdog armed).
NODE_DRAINING = "node_draining"
DRAIN_COMPLETE = "drain_complete"
DRAIN_DEADLINE = "drain_deadline"
PREEMPTION_NOTICE = "preemption_notice"
NODE_REJOINED = "node_rejoined"
CLASS_STARVED = "class_starved"
UPSTREAM_CANCELLED = "upstream_cancelled"
#: Multi-tenant service events: a study was admitted into the daemon, a
#: study finished cleanly, a study burned through its resilience budget
#: (poison tasks / retry exhaustion / starvation) and was terminated —
#: *that study only*, other tenants keep running — a study was cancelled
#: by its owner, or the admission watchdog shed load before a memory
#: ceiling.
STUDY_ADMITTED = "study_admitted"
STUDY_COMPLETED = "study_completed"
STUDY_FAILED = "study_failed"
STUDY_CANCELLED = "study_cancelled"
LOAD_SHED = "load_shed"
#: Cooperative-preemption events: a running trial was flagged to suspend
#: (it spills model + optimiser + epoch cursor at its next checkpoint
#: epoch and stops warm), its spilled training state landed on disk, a
#: suspended trial was resubmitted and resumed from its epoch cursor, an
#: asynchronous multi-fidelity scheduler promoted a config to its next
#: rung the moment the result landed (no barrier), or a whole running
#: study was suspended by the service's memory watchdog (distinct from
#: ``load_shed``, which discards *queued* work — suspension keeps the
#: warm state and re-queues the study for when pressure clears).
TRIAL_SUSPENDED = "trial_suspended"
TRIAL_RESUMED = "trial_resumed"
SUSPEND_SPILL = "suspend_spill"
RUNG_PROMOTION = "rung_promotion"
STUDY_SUSPENDED = "study_suspended"
#: Cross-trial reuse events: a stage resolved from the content-addressed
#: cache after sidecar verification (hit), missed and was computed, was
#: a duplicate of a node its study already submitted (join — no task), an
#: entry failed verification (corrupt/truncated — treated as a miss,
#: quarantined after ``poison_threshold`` failures), or an entry was shed
#: by the LRU disk-pressure evictor.
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_JOIN = "cache_join"
CACHE_CORRUPT = "cache_corrupt"
CACHE_EVICT = "cache_evict"

EVENT_KINDS = (
    TIMEOUT,
    BACKOFF_WAIT,
    SPECULATION_LAUNCHED,
    SPECULATION_WON,
    SPECULATION_CANCELLED,
    QUARANTINE,
    PROBE,
    TRIAL_RETRY,
    NODE_LOST,
    LINEAGE_RECOVERY,
    JOURNAL_TRUNCATED,
    CHECKPOINT_RESTORE,
    WORKER_CRASH,
    WORKER_KILLED,
    WORKER_RECYCLED,
    POISON_TASK,
    DATA_CORRUPT,
    TRANSFER_FAILED,
    TRANSFER_RETRY,
    REPLICA_REPAIR,
    INTEGRITY_RECOMPUTE,
    NODE_DRAINING,
    DRAIN_COMPLETE,
    DRAIN_DEADLINE,
    PREEMPTION_NOTICE,
    NODE_REJOINED,
    CLASS_STARVED,
    UPSTREAM_CANCELLED,
    STUDY_ADMITTED,
    STUDY_COMPLETED,
    STUDY_FAILED,
    STUDY_CANCELLED,
    LOAD_SHED,
    TRIAL_SUSPENDED,
    TRIAL_RESUMED,
    SUSPEND_SPILL,
    RUNG_PROMOTION,
    STUDY_SUSPENDED,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_JOIN,
    CACHE_CORRUPT,
    CACHE_EVICT,
)


@dataclass(frozen=True)
class ResilienceEvent:
    """One resilience decision, timestamped in the executor's clock."""

    time: float
    kind: str
    task_label: str = ""
    node: str = ""
    detail: str = ""

    def describe(self) -> str:
        parts = [f"t={self.time:.1f}", self.kind]
        if self.task_label:
            parts.append(self.task_label)
        if self.node:
            parts.append(f"@{self.node}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class ResilienceLog:
    """Bounded ring buffer of :class:`ResilienceEvent` records.

    Events are appended in decision order, which for the simulated
    executor is fully deterministic: two runs with the same seed produce
    identical logs (the chaos-test acceptance criterion).

    The buffer keeps the most recent ``maxlen`` events (default 10 000)
    so a multi-day study with chronic flakiness cannot grow the log
    without bound; evicted events are counted in :attr:`dropped` and
    surfaced by :meth:`counts` under ``"dropped_events"``.
    """

    DEFAULT_MAXLEN = 10_000

    def __init__(self, maxlen: Optional[int] = DEFAULT_MAXLEN) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        self.events: Deque[ResilienceEvent] = deque(maxlen=maxlen)
        #: Events evicted from the ring buffer since the last clear().
        self.dropped = 0

    def record(
        self,
        time: float,
        kind: str,
        task_label: str = "",
        node: str = "",
        detail: str = "",
    ) -> ResilienceEvent:
        """Append and return an event (evicting the oldest when full)."""
        event = ResilienceEvent(time, kind, task_label, node, detail)
        if self.maxlen is not None and len(self.events) == self.maxlen:
            self.dropped += 1
        self.events.append(event)
        _log.info("resilience: %s", event.describe())
        return event

    def of_kind(self, kind: str) -> List[ResilienceEvent]:
        """Retained events of one kind, in record order."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """``kind → occurrences`` over retained events.

        When the ring buffer has evicted events, the count of evictions
        appears under ``"dropped_events"`` so dashboards can tell the
        totals are a window, not the full history.
        """
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        if self.dropped:
            out["dropped_events"] = self.dropped
        return out

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)


class StragglerDetector:
    """Running per-task-name duration medians for straggler detection.

    A task of name *n* still running after ``multiplier × median(n)``
    seconds is a straggler candidate; the executor launches a backup
    attempt on another node and keeps the first finisher.  The median is
    only trusted once ``min_samples`` successful attempts of that name
    completed (early in a study there is nothing to compare against).
    """

    def __init__(self, multiplier: float, min_samples: int = 3):
        check_positive("multiplier", multiplier)
        check_positive("min_samples", min_samples)
        self.multiplier = float(multiplier)
        self.min_samples = int(min_samples)
        self._durations: Dict[str, List[float]] = {}

    def observe(self, name: str, duration: float) -> None:
        """Record one successful attempt's duration."""
        if duration < 0:
            return
        insort(self._durations.setdefault(name, []), duration)

    def samples(self, name: str) -> int:
        return len(self._durations.get(name, ()))

    def median(self, name: str) -> Optional[float]:
        """Median duration, or None below ``min_samples`` observations."""
        durations = self._durations.get(name)
        if not durations or len(durations) < self.min_samples:
            return None
        return float(statistics.median(durations))

    def threshold(self, name: str) -> Optional[float]:
        """Straggler threshold (seconds), or None if not yet known."""
        median = self.median(name)
        return None if median is None else self.multiplier * median


class _NodeState:
    """Mutable health record for one node."""

    __slots__ = ("outcomes", "status", "quarantined_until", "failures", "timeouts")

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    PROBING = "probing"

    def __init__(self, window: int):
        self.outcomes: Deque[bool] = deque(maxlen=window)
        self.status = self.HEALTHY
        self.quarantined_until = 0.0
        self.failures = 0
        self.timeouts = 0


class NodeHealth:
    """Per-node failure accounting with quarantine and probe-back.

    A node whose failure rate over its last ``window`` attempts reaches
    ``threshold`` (with at least ``min_events`` attempts observed) is
    *quarantined*: the scheduler stops placing tasks there (see
    ``Scheduler._try_place``).  After ``cooldown_s`` the node moves to
    *probation*: it may host tasks again (a "probe"); the first failure
    re-quarantines it immediately, the first success restores it to
    healthy with a clean history.

    Parameters
    ----------
    threshold:
        Failure-rate threshold in ``(0, 1]``; ``None`` disables tracking.
    window:
        Number of most-recent attempt outcomes considered per node.
    min_events:
        Minimum outcomes before the rate is acted upon.
    cooldown_s:
        Quarantine duration (in the owning executor's clock).
    log:
        Optional :class:`ResilienceLog` receiving quarantine/probe events.
    clock:
        Zero-argument callable returning the current time; the runtime
        points this at the executor's (wall or virtual) clock.
    """

    def __init__(
        self,
        threshold: Optional[float] = None,
        window: int = 10,
        min_events: int = 4,
        cooldown_s: float = 300.0,
        log: Optional[ResilienceLog] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if threshold is not None:
            check_in_range("threshold", threshold, 0.0, 1.0)
            if threshold == 0.0:
                raise ValueError("threshold must be > 0 (use None to disable)")
        check_positive("window", window)
        check_positive("min_events", min_events)
        check_positive("cooldown_s", cooldown_s)
        self.threshold = threshold
        self.window = int(window)
        self.min_events = int(min_events)
        self.cooldown_s = float(cooldown_s)
        self.log = log
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._state: Dict[str, _NodeState] = {}

    @property
    def enabled(self) -> bool:
        return self.threshold is not None

    def _node(self, node: str) -> _NodeState:
        state = self._state.get(node)
        if state is None:
            state = self._state[node] = _NodeState(self.window)
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_success(self, node: str) -> None:
        """A task attempt completed successfully on ``node``."""
        if not self.enabled:
            return
        state = self._node(node)
        state.outcomes.append(True)
        if state.status == _NodeState.PROBING:
            # Probe passed: full pardon.
            state.status = _NodeState.HEALTHY
            state.outcomes.clear()

    def record_failure(self, node: str, kind: str = "failure") -> None:
        """A task attempt failed (or timed out) on ``node``."""
        if not self.enabled:
            return
        state = self._node(node)
        state.outcomes.append(False)
        state.failures += 1
        if kind == "timeout":
            state.timeouts += 1
        if state.status == _NodeState.PROBING:
            self._quarantine(node, state, detail=f"probe failed ({kind})")
        elif state.status == _NodeState.HEALTHY and self._over_threshold(state):
            self._quarantine(
                node, state,
                detail=f"failure rate {self.failure_rate(node):.2f} "
                f">= {self.threshold:.2f}",
            )

    def _over_threshold(self, state: _NodeState) -> bool:
        if len(state.outcomes) < self.min_events:
            return False
        failures = sum(1 for ok in state.outcomes if not ok)
        return failures / len(state.outcomes) >= (self.threshold or 1.1)

    def _quarantine(self, node: str, state: _NodeState, detail: str) -> None:
        now = self.clock()
        state.status = _NodeState.QUARANTINED
        state.quarantined_until = now + self.cooldown_s
        state.outcomes.clear()
        if self.log is not None:
            self.log.record(now, QUARANTINE, node=node, detail=detail)

    # ------------------------------------------------------------------
    # Queries (scheduler side)
    # ------------------------------------------------------------------
    def is_blocked(self, node: str) -> bool:
        """Whether the scheduler should avoid ``node`` right now.

        Checking a node whose cool-down has expired transitions it to
        probation (and logs a ``probe`` event) as a side effect.
        """
        if not self.enabled:
            return False
        state = self._state.get(node)
        if state is None or state.status != _NodeState.QUARANTINED:
            return False
        now = self.clock()
        if now >= state.quarantined_until:
            state.status = _NodeState.PROBING
            state.outcomes.clear()
            if self.log is not None:
                self.log.record(now, PROBE, node=node, detail="cool-down expired")
            return False
        return True

    def blocked_nodes(self) -> List[str]:
        """Currently-quarantined nodes (triggers probe transitions)."""
        return [node for node in list(self._state) if self.is_blocked(node)]

    def failure_rate(self, node: str) -> float:
        """Failure rate over the node's current outcome window."""
        state = self._state.get(node)
        if state is None or not state.outcomes:
            return 0.0
        return sum(1 for ok in state.outcomes if not ok) / len(state.outcomes)

    def status(self, node: str) -> str:
        """``healthy`` / ``quarantined`` / ``probing`` for ``node``."""
        state = self._state.get(node)
        return state.status if state is not None else _NodeState.HEALTHY

    def describe(self) -> str:
        if not self._state:
            return "(no node-health records)"
        lines = ["node health:"]
        for node in sorted(self._state):
            state = self._state[node]
            lines.append(
                f"  {node}: {state.status}, {state.failures} failures "
                f"({state.timeouts} timeouts), window rate "
                f"{self.failure_rate(node):.2f}"
            )
        return "\n".join(lines)
