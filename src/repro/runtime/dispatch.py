"""Incremental dispatch engine — the submit→ready→place→run fast path.

The classic path re-ran the full scheduler over the *entire* waiting
queue on every submission and completion: with ``n`` waiting tasks that
is O(n) placement probes per event and O(n²) aggregate, which caps
studies at a few thousand tasks.  This engine makes dispatch incremental:

* Ready tasks are bucketed into one queue per **constraint class**
  (:meth:`~repro.runtime.task_definition.TaskDefinition.constraint_class`).
  Tasks in a class are interchangeable for *feasibility* — at any pool
  state either the head can be placed or nothing in the queue can — so a
  scheduling round probes only queue heads.
* A class that fails to place is **blocked** and stays blocked across
  rounds until an event that could change the answer: a release on a
  node the class statically fits (tracked via the pool's
  constraint-class capacity index), a topology change (node added,
  failed, or recovered), or a change in the quarantine set.  Completions
  therefore wake only the classes whose capacity actually changed.
* Policy semantics are preserved exactly: rounds place tasks in the
  scheduler's :meth:`~repro.runtime.scheduler.base.Scheduler.sort_key`
  order (a lazy merge over the per-class heaps), so placements equal a
  plain ``_try_place`` pass in that order.  Placement feasibility is
  preference-independent (``preferred_nodes`` only chooses *which* node,
  never *whether*), so skipping a blocked class never changes an
  assignment — only the cost of discovering it.

**Run queues.**  Under the default submission-order policy
(``sort_key`` is ``task_id``), the one class of a run with no
registered study is a plain deque of tasks while its tasks arrive in
increasing id — every FIFO stream.  The first out-of-order ingest (a
retry, a re-readied task) turns it into the ``(sort_key, seq, task)``
heap, whose pop order the deque already was; so does a second class or
a registered study, before the merge loop ever reads a seq.

Tasks carrying ``failed_nodes`` (fault-tolerance resubmissions) are the
one per-task feasibility wrinkle: they may *refuse* nodes their class
would accept, so a placement failure of such a task never blocks its
class; the task is set aside for the round and retried on later rounds.

**Multi-tenant service mode** adds a *study* dimension to the class
heaps: class keys are ``(study, constraint_class)`` (study ``""`` for
the solo runtime).  One merge loop serves every round; its heads carry
a fair-share rank ahead of the policy sort key.  The rank only varies
when at least two studies have queued work — priority first (higher
wins), then stride-scheduled virtual time (cumulative placed CPU-units
divided by the study's weight), recomputed on every head push so shares
track live usage.  Otherwise it is a constant, so a solo run's
placements are byte-identical to a run without the service.  Quota and
accounting apply always: every placement of a registered study advances
its virtual time and charges its tenant, and a class whose tenant is at
its running-slot cap sits the round out (no blocking — the tenant's own
releases re-trigger rounds).

Thread-safety: capacity notifications (:meth:`on_release`,
:meth:`on_topology_change`) arrive from arbitrary threads with the pool
lock held; they only buffer into a wake set.  All queue mutation happens
in :meth:`ingest`/:meth:`schedule_round`, which executors call under the
runtime lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.runtime.fault import UnsatisfiableError
from repro.runtime.resilience import CLASS_STARVED
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler.base import Assignment, Scheduler
from repro.runtime.task_definition import TaskDefinition, TaskInvocation


@dataclass
class DispatchStats:
    """Operation counters for the fast path (asserted by the scale tests).

    ``placement_probes`` is the count that must stay O(tasks) — it was
    O(tasks²) on the classic path.  ``handoffs`` counts placements a
    batched drain made by passing a finished task's slots straight to
    the next task of its class (see :meth:`DispatchEngine._hand_off`);
    they are in ``placed`` but not in ``placement_probes``.
    """

    ingested: int = 0
    rounds: int = 0
    placement_probes: int = 0
    placed: int = 0
    handoffs: int = 0
    blocked_skips: int = 0
    wakes: int = 0
    full_wakes: int = 0
    classes_starved: int = 0
    starvation_failures: int = 0
    fair_rounds: int = 0
    quota_skips: int = 0
    paused_skips: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))

    def summary(self) -> Dict[str, float]:
        """Batched-scheduling summary.

        ``rounds`` is the number of scheduling rounds the engine ran;
        with wake batching on, one round drains *all* completions that
        arrived in a simulator wake, so ``avg_batch_size`` (tasks placed
        per round) ≫ 1 is the signature of batching paying off.
        ``wakes`` counts blocked constraint classes woken by freed
        capacity; ``full_wakes`` counts topology changes that re-probe
        every class; ``handoffs`` counts placements that took a finished
        task's slots without a probe.
        """
        rounds, placed = self.rounds, self.placed
        return {
            "rounds": rounds,
            "placed": placed,
            "avg_batch_size": round(placed / rounds, 3) if rounds else 0.0,
            "wakes": self.wakes,
            "full_wakes": self.full_wakes,
            "placement_probes": self.placement_probes,
            "handoffs": self.handoffs,
            "blocked_skips": self.blocked_skips,
            "fair_rounds": self.fair_rounds,
            "quota_skips": self.quota_skips,
        }


@dataclass
class _ClassQueue:
    """One constraint class: a policy-ordered queue and its definition.

    The queue is ``run`` (a deque of tasks in increasing ``task_id``)
    while the engine allows run queues, else ``heap``; one of them is
    always empty.
    """

    key: Tuple
    #: The definition that opened the class.  Every definition in a class
    #: has the same candidate constraints, so this one names the nodes
    #: the class statically fits, with or without queued tasks.
    definition: TaskDefinition
    #: Heap of (sort_key, seq, task) — policy order with FIFO tiebreak.
    heap: List[Tuple] = field(default_factory=list)
    #: Owning study ("" outside service mode) — the key's first element.
    study: str = ""
    #: Run queue: tasks in increasing task_id (None in heap mode).
    run: Optional[deque] = None


@dataclass
class _StudyShare:
    """Fair-share state of one registered study (service mode).

    ``vtime`` is stride-scheduling virtual time: cumulative placed
    CPU-units divided by ``weight``.  The study with the smallest vtime
    (within the highest priority band) places next, so long-run
    placement shares converge to the weight ratio regardless of how
    bursty each study's submissions are.
    """

    study: str
    priority: int = 0
    weight: float = 1.0
    tenant: str = ""
    max_tenant_slots: Optional[int] = None
    vtime: float = 0.0
    #: A paused (suspending) study keeps its lane and vtime but places
    #: nothing until resumed — queued work waits warm instead of racing
    #: the suspension of its in-flight siblings.
    paused: bool = False


class DispatchEngine:
    """Event-driven partial rescheduler shared by both executors."""

    def __init__(self, scheduler: Scheduler, pool: ResourcePool):
        self.scheduler = scheduler
        self.pool = pool
        self.stats = DispatchStats()
        #: Whether placement probes are the base class's: the batched
        #: drain's hand-off reproduces exactly that probe, no other.
        self._base_probe = type(scheduler)._try_place is Scheduler._try_place
        #: Whether class queues may be run queues: the base class's
        #: ``task_id`` key, at most one class and no registered study
        #: (see the module docstring).
        self._runs = type(scheduler).sort_key is Scheduler.sort_key
        #: Starvation watchdog wiring (set by the runtime after
        #: construction): executor clock, resilience log, and the hold
        #: budget before starved tasks are reaped.  ``None`` timeout
        #: disables reaping — starved classes are simply held.
        self.clock = None
        self.resilience = None
        self.starvation_timeout_s: Optional[float] = None
        #: class key -> time it first starved (every candidate node dead
        #: or draining).  The start time survives re-probes so the
        #: watchdog measures total starvation, not time-since-last-look.
        self._starved: Dict[Tuple, float] = {}
        self._classes: Dict[Tuple, _ClassQueue] = {}
        #: class key -> nodes that freed capacity since the class was last
        #: conclusively blocked.  An *empty* set means "blocked, skip the
        #: probe"; a non-empty set means "re-probe, but only the listed
        #: nodes" (every node outside the set failed a capacity check and
        #: has only lost capacity since, so probing it again is wasted
        #: work).  Absent key = never blocked, probe unrestricted.
        self._blocked: Dict[Tuple, Set[str]] = {}
        #: node name -> constraint classes that statically fit on it.
        self._node_classes: Dict[str, Set[Tuple]] = {}
        self._wake_lock = threading.Lock()
        self._woken_nodes: Set[str] = set()
        self._wake_all = False
        self._last_quarantine: Optional[FrozenSet[str]] = None
        self._seq = itertools.count()
        #: task_ids currently queued — dedups re-ingestion of a task that
        #: was invalidated (lineage recovery) and re-readied while its
        #: original heap entry was still queued.
        self._queued: Set[int] = set()
        #: Lazily-dropped queue entries (invalidated by lineage recovery);
        #: resolved at the head of schedule_round, or cancelled in place
        #: if the task is re-ingested first.
        self._purged: Set[int] = set()
        #: Pooled per-round scratch (reused across rounds so the hot path
        #: allocates no fresh lists per completion batch): the round's
        #: participating classes, then their merge heads; and the
        #: ``(class, entry)`` pairs set aside.
        self._heads: List = []
        self._deferred: List[Tuple] = []
        #: study id -> fair-share state of registered studies (empty for
        #: the solo runtime, whose study "" is never registered).
        self._studies: Dict[str, _StudyShare] = {}

    # ------------------------------------------------------------------
    # Study registration (multi-tenant service mode)
    # ------------------------------------------------------------------
    def register_study(
        self,
        study: str,
        priority: int = 0,
        weight: float = 1.0,
        tenant: str = "",
        max_tenant_slots: Optional[int] = None,
    ) -> None:
        """Give ``study`` a fair-share lane across the class heaps.

        ``priority`` ranks studies strictly (higher places first);
        within a priority band placement follows stride-scheduled
        virtual time so long-run CPU shares converge to the ``weight``
        ratio.  ``max_tenant_slots`` caps the tenant's concurrently
        *running* placements across all its studies.
        """
        if not study:
            raise ValueError("study id must be non-empty")
        if weight <= 0:
            raise ValueError(f"study weight must be > 0, got {weight!r}")
        self._end_runs()
        existing = self._studies.get(study)
        share = _StudyShare(
            study=study, priority=priority, weight=weight,
            tenant=tenant, max_tenant_slots=max_tenant_slots,
        )
        if existing is not None:
            share.vtime = existing.vtime
        else:
            # A late-joining study starts at the current minimum vtime of
            # its priority band, not at zero — otherwise it would starve
            # everyone else until it "caught up" on work it never saw.
            peers = [
                s.vtime for s in self._studies.values()
                if s.priority == priority
            ]
            share.vtime = min(peers) if peers else 0.0
        self._studies[study] = share

    def unregister_study(self, study: str) -> None:
        """Drop a finished study's fair-share lane (idempotent)."""
        self._studies.pop(study, None)

    def pause_study(self, study: str) -> bool:
        """Stop placing a study's queued tasks (suspend support).

        In-flight attempts are untouched — the preemption controller
        handles those — but nothing new starts, so a suspending study
        cannot re-grow its footprint between the suspend decision and
        the last spill landing.  Returns False for unknown studies.
        """
        share = self._studies.get(study)
        if share is None:
            return False
        share.paused = True
        return True

    def resume_study(self, study: str) -> bool:
        """Re-enable placement for a paused study (idempotent)."""
        share = self._studies.get(study)
        if share is None:
            return False
        share.paused = False
        return True

    def study_shares(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of registered studies (service status endpoint)."""
        return {
            s.study: {
                "priority": s.priority,
                "weight": s.weight,
                "tenant": s.tenant,
                "vtime": s.vtime,
                "paused": s.paused,
            }
            for s in self._studies.values()
        }

    def _rank(self, study: str) -> Tuple:
        """Round-time fair-share rank of a study (smaller places first)."""
        share = self._studies.get(study)
        if share is None:
            return (0, 0.0, study)
        return (-share.priority, share.vtime, study)

    def _head(self, cq: _ClassQueue, fair: bool) -> Tuple:
        """Merge-loop head ``(rank, sort, seq, key)`` of a class queue.

        The rank is a constant unless the round is ``fair`` (two or more
        studies queued), so solo rounds merge in plain policy order.
        """
        sort, seq, _task = cq.heap[0]
        return (self._rank(cq.study) if fair else 0, sort, seq, cq.key)

    def _tenant_at_quota(self, share: _StudyShare) -> bool:
        if share.max_tenant_slots is None:
            return False
        return self.pool.tenant_load(share.tenant) >= share.max_tenant_slots

    def _charge_share(self, share: _StudyShare, placed: Assignment) -> None:
        """Account one placement against the study's share and tenant."""
        units = placed.allocation.cpu_units or 1
        for extra in placed.extra_allocations:
            units += extra.cpu_units or 1
        share.vtime += units / share.weight
        if share.tenant and share.max_tenant_slots is not None:
            self.pool.charge_tenant(placed.allocation, share.tenant)

    # ------------------------------------------------------------------
    # Pool listener protocol (called with the pool lock held: buffer only)
    # ------------------------------------------------------------------
    def on_release(self, node: str) -> None:
        """Capacity freed on ``node`` — wake the classes that fit there."""
        with self._wake_lock:
            self._woken_nodes.add(node)

    def on_topology_change(self) -> None:
        """A node joined/failed/recovered — every answer may have changed."""
        with self._wake_lock:
            self._wake_all = True

    # ------------------------------------------------------------------
    # Queue maintenance
    # ------------------------------------------------------------------
    def _class_for(self, task: TaskInvocation) -> _ClassQueue:
        definition = task.definition
        cached = getattr(definition, "_dispatch_class_cache", None)
        if (
            cached is not None
            and cached[0] is self
            and cached[1].study == task.study
        ):
            return cached[1]
        key = (task.study, definition.constraint_class())
        cq = self._classes.get(key)
        if cq is None:
            if self._classes:
                self._end_runs()
            cq = _ClassQueue(key, definition, study=task.study)
            self._classes[key] = cq
            self._register_nodes(cq)
        # Safe to cache per (engine, definition, study): constraint_class()
        # is itself cached on the definition and decorators finish mutating
        # the constraint before the first submission.  A definition shared
        # across studies (rare) revalidates via the study check above.
        definition._dispatch_class_cache = (self, cq)
        return cq

    def _register_nodes(self, cq: _ClassQueue) -> None:
        names: Set[str] = set()
        for impl in cq.definition.all_candidates():
            names.update(self.pool.static_candidates(impl.constraint))
        for name in names:
            self._node_classes.setdefault(name, set()).add(cq.key)

    def _to_heap(self, cq: _ClassQueue) -> None:
        """Turn a run queue into the heap it stands for.

        Only the one class can hold a run, so fresh seqs in run order
        rank its entries exactly as their ingest seqs did.
        """
        run, cq.run = cq.run, None
        if run:
            seq = self._seq
            cq.heap = [(t.task_id, next(seq), t) for t in run]  # sorted: a heap

    def _end_runs(self) -> None:
        """Leave run queues for good (a second class or a study)."""
        if self._runs:
            self._runs = False
            for cq in self._classes.values():
                self._to_heap(cq)

    def _enqueue(self, cq: _ClassQueue, task: TaskInvocation) -> None:
        """Queue ``task`` where the run-queue append in :meth:`ingest`
        does not apply: a class in heap mode, or an out-of-order task."""
        heap = cq.heap
        if cq.run is not None:
            self._to_heap(cq)
            heap = cq.heap
        elif not heap and self._runs:
            cq.run = deque((task,))
            return
        heapq.heappush(heap, (self.scheduler.sort_key(task), next(self._seq), task))

    def ingest(self, tasks: Iterable[TaskInvocation]) -> None:
        """Add newly-ready tasks to their class queues."""
        queued = self._queued
        purged = self._purged
        sort_key = self.scheduler.sort_key
        seq = self._seq
        heappush = heapq.heappush
        enqueue = self._enqueue
        class_for = self._class_for
        # A run of one definition in one study asks _class_for once.
        cq: Optional[_ClassQueue] = None
        definition = None
        n = 0
        for task in tasks:
            tid = task.task_id
            if tid in queued:
                # Still queued from before an invalidate/re-ready cycle:
                # revive the existing entry instead of duplicating it.
                purged.discard(tid)
                continue
            queued.add(tid)
            if task.definition is not definition or task.study != cq.study:
                cq = class_for(task)
                definition = task.definition
            run = cq.run
            if run is not None and (not run or tid > run[-1].task_id):
                run.append(task)
            elif run is None and cq.heap:
                heappush(cq.heap, (sort_key(task), next(seq), task))
            else:
                enqueue(cq, task)
            n += 1
        self.stats.ingested += n

    def purge(self, tasks: Iterable[TaskInvocation]) -> None:
        """Lazily drop queued tasks that lineage recovery invalidated.

        An invalidated task cannot be pulled out of a heap cheaply, so it
        is tombstoned here and skipped (or revived by a re-:meth:`ingest`)
        when its entry reaches the head of a scheduling round.
        """
        for task in tasks:
            if task.task_id in self._queued:
                self._purged.add(task.task_id)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the class heaps when tombstones dominate.

        Lazy deletion is O(1) per purge but leaves dead entries in the
        heaps; after a mass invalidation (lineage recovery under churn)
        those can dominate and every later round pays to skip them.  When
        at least 64 entries — and more than half of everything queued —
        are tombstones, rebuild each affected heap without them so heap
        sizes stay bounded by live work.
        """
        purged = self._purged
        n_purged = len(purged)
        if n_purged < 64 or n_purged * 2 <= len(self._queued):
            return
        for cq in self._classes.values():
            if cq.run:
                cq.run = deque(t for t in cq.run if t.task_id not in purged)
            heap = cq.heap
            if any(e[2].task_id in purged for e in heap):
                heap[:] = [e for e in heap if e[2].task_id not in purged]
                heapq.heapify(heap)
        self._queued -= purged
        purged.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Tasks currently queued (ready but unplaced).

        Tombstoned (purged-but-not-yet-dropped) entries are excluded, so
        the answer agrees with the graph across cancel+resubmit cycles.
        """
        return len(self._queued) - len(self._purged)

    def waiting_tasks(self) -> List[TaskInvocation]:
        """Queued tasks in policy order (debugging / tests)."""
        entries = [e for cq in self._classes.values() for e in cq.heap]
        entries += [
            (t.task_id, 0, t) for cq in self._classes.values() for t in cq.run or ()
        ]
        return [
            task
            for _, _, task in sorted(entries)
            if task.task_id not in self._purged
        ]

    # ------------------------------------------------------------------
    # Starvation watchdog
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _mark_starved(self, key, task, exc: UnsatisfiableError) -> None:
        if key in self._starved:
            return
        now = self._now()
        self._starved[key] = now
        self.stats.classes_starved += 1
        if self.resilience is not None:
            self.resilience.record(
                now, CLASS_STARVED, task_label=task.label,
                detail=exc.constraint,
            )

    def starved_classes(self) -> Dict[Tuple, float]:
        """Currently-starved constraint classes → starvation start time."""
        return dict(self._starved)

    def next_starvation_deadline(self) -> Optional[float]:
        """Earliest time a starved class becomes reapable (None if n/a)."""
        if self.starvation_timeout_s is None or not self._starved:
            return None
        return min(self._starved.values()) + self.starvation_timeout_s

    def reap_starved(self) -> List[Tuple[TaskInvocation, float]]:
        """Fail-out pass of the starvation watchdog.

        Pops every queued task of each class starved for at least
        ``starvation_timeout_s`` and returns ``(task, waited_s)`` pairs;
        the executor fails them with
        :class:`~repro.runtime.fault.ResourceStarvationError`.  Classes
        that re-gained a candidate node were already un-starved by the
        scheduling round that saw it, so they are never reaped.
        """
        if self.starvation_timeout_s is None or not self._starved:
            return []
        now = self._now()
        victims: List[Tuple[TaskInvocation, float]] = []
        for key, since in sorted(self._starved.items(), key=lambda kv: kv[1]):
            if now - since < self.starvation_timeout_s - 1e-9:
                continue
            cq = self._classes.get(key)
            while cq is not None and (cq.run or cq.heap):
                task = cq.run.popleft() if cq.run else heapq.heappop(cq.heap)[2]
                self._queued.discard(task.task_id)
                if task.task_id in self._purged:
                    self._purged.discard(task.task_id)
                    continue
                victims.append((task, now - since))
                self.stats.starvation_failures += 1
            del self._starved[key]
            self._blocked.pop(key, None)
        return victims

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def _drain_wakes(self) -> None:
        with self._wake_lock:
            woken, self._woken_nodes = self._woken_nodes, set()
            wake_all, self._wake_all = self._wake_all, False
        if wake_all:
            # Topology changed: static fits are stale — rebuild the
            # node→class index from the pool's (freshly invalidated)
            # capacity index, and re-probe everything once.  A class
            # with nothing queued stays indexed: tasks it queues later
            # must still be woken by releases.
            self.stats.full_wakes += 1
            self._blocked.clear()
            self._node_classes.clear()
            for cq in self._classes.values():
                self._register_nodes(cq)
            return
        if woken and self._blocked:
            blocked = self._blocked
            node_classes = self._node_classes
            for node in woken:
                hit = node_classes.get(node)
                if not hit:
                    continue
                for key in hit:
                    restrict = blocked.get(key)
                    if restrict is None:
                        continue
                    if not restrict:
                        # First capacity signal since the class blocked:
                        # it becomes probeable again (restricted to the
                        # nodes that actually freed something).
                        self.stats.wakes += 1
                    restrict.add(node)

    def _check_quarantine(self) -> List[str]:
        quarantined = self.pool.blocked_nodes()
        as_set = frozenset(quarantined)
        if as_set != self._last_quarantine:
            # The avoid-set every queued task sees just changed; previous
            # infeasibility verdicts no longer hold.
            self._blocked.clear()
            self._last_quarantine = as_set
        return quarantined

    def schedule_round(self) -> List[Assignment]:
        """Place every placeable queued task; returns the assignments.

        Within the round the pool only shrinks (placements consume
        capacity, nothing is released synchronously), so one failed probe
        per class is conclusive for the whole round — and, thanks to the
        wake protocol, for every following round until a relevant event.
        """
        self.stats.rounds += 1
        self._drain_wakes()
        quarantined = self._check_quarantine()
        assignments: List[Assignment] = []
        self._place_ready(quarantined, assignments)
        return assignments

    def drain(
        self,
        units: List[Tuple[Assignment, List[TaskInvocation]]],
    ) -> List[Assignment]:
        """Batched scheduling: replay buffered completion units in order.

        Each unit is ``(assignment, ready)`` — the resources one finished
        attempt held plus the tasks its completion made ready.  Units are
        replayed strictly in completion order: release the unit's
        allocations, fold the wakes they generate into the blocked-class
        restriction sets, ingest the readied tasks, then place.  That
        per-unit replay is what keeps placements byte-identical to the
        unbatched engine (releasing a whole batch up front would let an
        early task see capacity that, event-by-event, a later task
        claimed first), while the round-level bookkeeping — quarantine
        check, stats round — is paid once per batch.  A unit whose replay
        would only hand its slots to the next task of its class skips it
        (:meth:`_hand_off`).
        """
        self.stats.rounds += 1
        self._drain_wakes()
        quarantined = self._check_quarantine()
        out: List[Assignment] = []
        pool = self.pool
        for assignment, ready in units:
            if not (self._woken_nodes or self._wake_all):
                # With no wake pending, ingesting before the release
                # leaves every queue, wake set and index as the replay
                # order below does; the hand-off needs the new head.
                if ready:
                    self.ingest(ready)
                    ready = None
                handed = self._hand_off(assignment, quarantined)
                if handed is not None:
                    out.append(handed)
                    continue
            pool.release(assignment.allocation)
            for extra in assignment.extra_allocations:
                pool.release(extra)
            self._drain_wakes()
            if ready:
                self.ingest(ready)
            self._place_ready(quarantined, out)
        return out

    def _hand_off(
        self, assignment: Assignment, quarantined: List[str]
    ) -> Optional[Assignment]:
        """Give a finished unit's slots straight to the head of its class.

        The paper's rule (§4) is that "the next task is assigned a
        computational unit as soon as one is available".  Replayed unit
        by unit, that is a release, a wake of the blocked class, a probe
        restricted to the freed node, and a take of the same slots.  This
        skips that chain when its outcome is certain:

        * one class, no registered study (no quota, no tenant charge),
          the base class's placement probe, and this engine as the
          pool's listener;
        * no node quarantined, and the class conclusively blocked (an
          empty restriction set), so the release would wake it on the
          freed node alone — the caller has checked that no other wake
          is pending;
        * the head is not purged, has no ``failed_nodes``, and its
          definition — its first candidate — is the finished attempt's
          implementation, a single-node constraint;
        * :meth:`ResourcePool.hand_over` agrees: the node is UP with no
          other CPU or GPU free, so the probe would take exactly these
          ids and leave the class blocked again.

        The stats record what the replay would have: a wake, a placement
        and a blocked skip; ``handoffs`` stands in for the probe.
        Returns the head's assignment, or ``None`` for the replay.
        """
        if (
            quarantined
            or self._studies
            or not self._base_probe
            or self.pool.listener is not self
        ):
            return None
        classes = self._classes
        if len(classes) != 1:
            return None
        ((key, cq),) = classes.items()
        run, heap = cq.run, cq.heap
        restrict = self._blocked.get(key)
        if not (run or heap) or restrict is None or restrict:
            return None
        task = run[0] if run else heap[0][2]
        impl = assignment.implementation
        alloc = assignment.allocation
        if (
            task.definition is not impl
            or task.failed_nodes
            or task.task_id in self._purged
            or impl.constraint.nodes != 1
        ):
            return None
        alloc = self.pool.hand_over(alloc)
        if alloc is None:
            return None
        if run:
            run.popleft()
        else:
            heapq.heappop(heap)
        self._queued.discard(task.task_id)
        if self._starved:
            self._starved.pop(key, None)
        stats = self.stats
        stats.handoffs += 1
        stats.wakes += 1
        stats.placed += 1
        stats.blocked_skips += 1
        return Assignment(task, alloc, impl)

    def _place_ready(
        self, quarantined: List[str], out: List[Assignment]
    ) -> None:
        """One placement pass over the class queues; appends to ``out``.

        A class takes part unless its queue is empty, it is conclusively
        blocked, or its study is paused.  The participants' heads merge
        in ``(rank, sort, seq, key)`` order (see :meth:`_head`) and
        :meth:`_step` probes the first; a class keeps the lead while its
        next head still sorts first, which is what popping and re-pushing
        that head would give.  A lone participant — every round of a
        homogeneous solo run — needs no heads at all: within a class,
        queue order *is* policy order.  In a fair round a head's rank is
        recomputed whenever it is re-pushed, because each placement
        advances its study's vtime — which is what rotates service
        between tenants.  Uses the pooled ``_heads`` / ``_deferred``
        scratch lists.
        """
        blocked = self._blocked
        stats = self.stats
        studies = self._studies
        heads = self._heads
        multi_study = False
        for key, cq in self._classes.items():
            if not (cq.run or cq.heap):
                continue
            restrict = blocked.get(key)
            if restrict is not None and not restrict:
                stats.blocked_skips += 1
                continue
            if studies:
                share = studies.get(cq.study)
                if share is not None and share.paused:
                    stats.paused_skips += 1
                    continue
            if heads and cq.study != heads[0].study:
                multi_study = True
            heads.append(cq)
        if not heads:
            return
        fair = multi_study and bool(studies)
        if fair:
            stats.fair_rounds += 1
        if len(heads) == 1:
            cq = heads.pop()
        else:
            heads[:] = [self._head(cq, fair) for cq in heads]
            heapq.heapify(heads)
            cq = self._classes[heapq.heappop(heads)[3]]
        try:
            while True:
                share = studies.get(cq.study)
                while self._step(cq, share, quarantined, out) and (cq.run or cq.heap):
                    if heads:
                        head = self._head(cq, fair)
                        if head > heads[0]:
                            heapq.heappush(heads, head)
                            break
                if not heads:
                    return
                cq = self._classes[heapq.heappop(heads)[3]]
        finally:
            heads.clear()
            deferred = self._deferred
            if deferred:
                # Back in front of their queues, in the order they left.
                for cq, entry in reversed(deferred):
                    if cq.run is not None:
                        cq.run.appendleft(entry)
                    else:
                        heapq.heappush(cq.heap, entry)
                deferred.clear()

    def _step(
        self,
        cq: _ClassQueue,
        share: Optional[_StudyShare],
        quarantined: List[str],
        out: List[Assignment],
    ) -> bool:
        """Probe the head of ``cq`` once: drop it if purged, place it,
        set it aside, or block or starve the class.  A registered study's
        placement is checked against its tenant's slot quota and charged
        to its share.  Returns whether the class may place again this
        round — a ``False`` is conclusive for the round.
        """
        run, heap = cq.run, cq.heap
        task = run[0] if run else heap[0][2]
        tid = task.task_id
        if tid in self._purged:
            # Invalidated (lineage recovery) while queued: drop the stale
            # entry; the graph re-readies it when its inputs re-materialise.
            run.popleft() if run else heapq.heappop(heap)
            self._queued.discard(tid)
            self._purged.discard(tid)
            return True
        stats = self.stats
        if share is not None and self._tenant_at_quota(share):
            # Over quota: the whole class waits for a release from one of
            # the tenant's running tasks — quota state cannot change
            # within the round.
            stats.quota_skips += 1
            return False
        key = cq.key
        blocked = self._blocked
        stats.placement_probes += 1
        try:
            placed = self.scheduler._try_place(
                task, self.pool, quarantined, blocked.get(key)
            )
        except UnsatisfiableError as exc:
            if exc.permanent:
                raise
            # Starved: capable nodes exist but all are dead/draining.
            # Hold the class awaiting a rejoin; the watchdog reaps it
            # after starvation_timeout_s.
            blocked[key] = set()
            self._mark_starved(key, task, exc)
            return False
        if self._starved:
            self._starved.pop(key, None)
        if placed is not None:
            run.popleft() if run else heapq.heappop(heap)
            self._queued.discard(tid)
            if share is not None:
                self._charge_share(share, placed)
            out.append(placed)
            stats.placed += 1
            restrict = blocked.get(key)
            if restrict is not None and not restrict:
                # The allocation itself exhausted the last woken node
                # (pruned by try_allocate): the class is conclusively
                # blocked again — skip the would-fail re-probe.
                stats.blocked_skips += 1
                return False
            return True
        if task.failed_nodes:
            # Per-task avoid sets make this task stricter than its class:
            # set it aside and give the next-in-class a go.
            self._deferred.append((cq, run.popleft() if run else heapq.heappop(heap)))
            return True
        # Conclusively blocked at the current pool state: reset the
        # restriction set — only nodes that free capacity from here on
        # are worth re-probing.
        blocked[key] = set()
        return False
