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

Tasks carrying ``failed_nodes`` (fault-tolerance resubmissions) are the
one per-task feasibility wrinkle: they may *refuse* nodes their class
would accept, so a placement failure of such a task never blocks its
class; the task is set aside for the round and retried on later rounds.

**Multi-tenant service mode** adds a *study* dimension to the class
heaps: class keys become ``(study, constraint_class)`` and, whenever a
round sees queued work from two or more studies, heads are merged in
fair-share order — priority first (higher wins), then stride-scheduled
virtual time (cumulative placed CPU-units divided by the study's
weight), recomputed at round time so shares track live usage.  Rounds
with a single participating study take the unchanged legacy path, which
is what keeps a solo run's placements byte-identical to a run without
the service.  Per-tenant slot quotas are enforced here too: a class
whose tenant is at its running-slot cap simply sits the round out (no
blocking — the tenant's own releases re-trigger rounds).

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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.runtime.fault import UnsatisfiableError
from repro.runtime.resilience import CLASS_STARVED
from repro.runtime.resources import ResourcePool
from repro.runtime.scheduler.base import Assignment, Scheduler
from repro.runtime.task_definition import TaskInvocation


@dataclass
class DispatchStats:
    """Operation counters for the fast path (asserted by the scale tests).

    ``placement_probes`` is the count that must stay O(tasks) — it was
    O(tasks²) on the classic path.
    """

    ingested: int = 0
    rounds: int = 0
    placement_probes: int = 0
    placed: int = 0
    blocked_skips: int = 0
    wakes: int = 0
    full_wakes: int = 0
    classes_starved: int = 0
    starvation_failures: int = 0
    fair_rounds: int = 0
    quota_skips: int = 0
    paused_skips: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "ingested": self.ingested,
            "rounds": self.rounds,
            "placement_probes": self.placement_probes,
            "placed": self.placed,
            "blocked_skips": self.blocked_skips,
            "wakes": self.wakes,
            "full_wakes": self.full_wakes,
            "classes_starved": self.classes_starved,
            "starvation_failures": self.starvation_failures,
            "fair_rounds": self.fair_rounds,
            "quota_skips": self.quota_skips,
            "paused_skips": self.paused_skips,
        }


@dataclass
class _ClassQueue:
    """One constraint class: a policy-ordered heap plus its wake nodes."""

    key: Tuple
    #: Heap of (sort_key, seq, task) — policy order with FIFO tiebreak.
    heap: List[Tuple] = field(default_factory=list)
    #: Names of nodes whose idle capacity fits some candidate impl.
    nodes: FrozenSet[str] = frozenset()
    #: Owning study ("" outside service mode) — the key's first element.
    study: str = ""


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
        #: allocates no fresh lists per completion batch).
        self._heads: List[Tuple] = []
        self._deferred: List[Tuple] = []
        #: study id -> fair-share state (service mode only; empty for the
        #: single-study runtime, which keeps every legacy code path).
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

    def _tenant_at_quota(self, share: Optional[_StudyShare]) -> bool:
        if share is None or share.max_tenant_slots is None:
            return False
        return self.pool.tenant_load(share.tenant) >= share.max_tenant_slots

    def _charge_share(self, study: str, placed: Assignment) -> None:
        """Account one placement against the study's share and tenant."""
        share = self._studies.get(study)
        if share is None:
            return
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
            cq = _ClassQueue(key, study=task.study)
            self._classes[key] = cq
            self._register_nodes(cq, task)
        # Safe to cache per (engine, definition, study): constraint_class()
        # is itself cached on the definition and decorators finish mutating
        # the constraint before the first submission.  A definition shared
        # across studies (rare) revalidates via the study check above.
        definition._dispatch_class_cache = (self, cq)
        return cq

    def _register_nodes(self, cq: _ClassQueue, task: TaskInvocation) -> None:
        names: Set[str] = set()
        for impl in task.definition.all_candidates():
            names.update(self.pool.static_candidates(impl.constraint))
        cq.nodes = frozenset(names)
        for name in names:
            self._node_classes.setdefault(name, set()).add(cq.key)

    def ingest(self, tasks: Iterable[TaskInvocation]) -> None:
        """Add newly-ready tasks to their class queues."""
        queued = self._queued
        purged = self._purged
        sort_key = self.scheduler.sort_key
        seq = self._seq
        heappush = heapq.heappush
        class_for = self._class_for
        n = 0
        for task in tasks:
            tid = task.task_id
            if tid in queued:
                # Still queued from before an invalidate/re-ready cycle:
                # revive the existing entry instead of duplicating it.
                purged.discard(tid)
                continue
            queued.add(tid)
            heappush(
                class_for(task).heap, (sort_key(task), next(seq), task)
            )
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
            while cq is not None and cq.heap:
                _, _, task = heapq.heappop(cq.heap)
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
            # capacity index, and re-probe everything once.
            self.stats.full_wakes += 1
            self._blocked.clear()
            self._node_classes.clear()
            for cq in self._classes.values():
                if cq.heap:
                    self._register_nodes(cq, cq.heap[0][2])
                else:
                    cq.nodes = frozenset()
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
        check, stats round — is paid once per batch.
        """
        self.stats.rounds += 1
        self._drain_wakes()
        quarantined = self._check_quarantine()
        out: List[Assignment] = []
        pool = self.pool
        for assignment, ready in units:
            pool.release(assignment.allocation)
            for extra in assignment.extra_allocations:
                pool.release(extra)
            self._drain_wakes()
            if ready:
                self.ingest(ready)
            self._place_ready(quarantined, out)
        return out

    def _place_ready(
        self, quarantined: List[str], out: List[Assignment]
    ) -> None:
        """One placement pass over the class-queue heads (shared core).

        Appends assignments to ``out``.  Uses the pooled ``_heads`` /
        ``_deferred`` scratch lists — no per-round allocations.
        """
        heads = self._heads
        blocked = self._blocked
        stats = self.stats
        multi_study = False
        first_study: Optional[str] = None
        for key, cq in self._classes.items():
            heap = cq.heap
            if not heap:
                continue
            restrict = blocked.get(key)
            if restrict is not None and not restrict:
                stats.blocked_skips += 1
                continue
            if cq.study:
                share = self._studies.get(cq.study)
                if share is not None and share.paused:
                    stats.paused_skips += 1
                    continue
            if first_study is None:
                first_study = cq.study
            elif cq.study != first_study:
                multi_study = True
            entry = heap[0]
            heads.append((entry[0], entry[1], key))
        if not heads:
            return
        if multi_study and self._studies:
            # Two or more studies have queued work: merge heads in
            # fair-share order instead of raw policy order.  Engaged only
            # here, so a solo study's placements stay byte-identical to a
            # run without the service.
            stats.fair_rounds += 1
            shared = [
                (self._rank(self._classes[k].study), s, q, k)
                for (s, q, k) in heads
            ]
            heads.clear()
            self._place_ready_shared(shared, quarantined, out)
            return
        if len(heads) == 1:
            # Single participating class (the common case in homogeneous
            # studies): within a class, heap order *is* policy order, so
            # the lazy merge below adds nothing but overhead.
            key = heads[0][2]
            heads.clear()
            self._place_class(key, quarantined, out)
            return
        heapq.heapify(heads)
        deferred = self._deferred
        try:
            while heads:
                _sort, seq, key = heapq.heappop(heads)
                cq = self._classes[key]
                heap = cq.heap
                if not heap or heap[0][1] != seq:
                    continue  # stale head entry
                task = heap[0][2]
                if task.task_id in self._purged:
                    # Invalidated (lineage recovery) while queued: drop the
                    # stale entry; the graph re-readies it when its inputs
                    # re-materialise.
                    heapq.heappop(heap)
                    self._queued.discard(task.task_id)
                    self._purged.discard(task.task_id)
                    if heap:
                        nxt = heap[0]
                        heapq.heappush(heads, (nxt[0], nxt[1], key))
                    continue
                stats.placement_probes += 1
                try:
                    placed = self.scheduler._try_place(
                        task, self.pool, quarantined, blocked.get(key)
                    )
                except UnsatisfiableError as exc:
                    if exc.permanent:
                        raise
                    # Starved: capable nodes exist but all are
                    # dead/draining.  Hold the class awaiting a rejoin;
                    # the watchdog reaps it after starvation_timeout_s.
                    blocked[key] = set()
                    self._mark_starved(key, task, exc)
                    continue
                self._starved.pop(key, None)
                if placed is not None:
                    heapq.heappop(heap)
                    self._queued.discard(task.task_id)
                    out.append(placed)
                    stats.placed += 1
                    if heap:
                        restrict = blocked.get(key)
                        if restrict is not None and not restrict:
                            # The allocation itself exhausted the last
                            # woken node (pruned by try_allocate): the
                            # class is conclusively blocked again.
                            stats.blocked_skips += 1
                        else:
                            nxt = heap[0]
                            heapq.heappush(heads, (nxt[0], nxt[1], key))
                elif task.failed_nodes:
                    # Per-task avoid sets make this task stricter than its
                    # class: set it aside and give the next-in-class a go.
                    deferred.append(heapq.heappop(heap))
                    if heap:
                        nxt = heap[0]
                        heapq.heappush(heads, (nxt[0], nxt[1], key))
                else:
                    # Conclusively blocked at the current pool state:
                    # reset the restriction set — only nodes that free
                    # capacity from here on are worth re-probing.
                    blocked[key] = set()
        finally:
            if heads:
                heads.clear()
            if deferred:
                for entry in deferred:
                    task = entry[2]
                    key = (task.study, task.definition.constraint_class())
                    heapq.heappush(self._classes[key].heap, entry)
                deferred.clear()

    def _place_ready_shared(
        self,
        shared: List[Tuple[Tuple, Tuple, int, Tuple]],
        quarantined: List[str],
        out: List[Assignment],
    ) -> None:
        """Fair-share merge loop for rounds where several studies compete.

        ``shared`` holds 4-tuples ``(rank, sort, seq, class_key)`` — the
        fair-share rank (priority band, then stride vtime) dominates, so
        the study owed the most service places first; within a study the
        policy sort order is preserved.  Ranks are recomputed on every
        head re-push: each placement advances the study's vtime, which is
        exactly what rotates service between tenants.  A class whose
        tenant is at its slot quota sits the round out (releases trigger
        new rounds, so no wake bookkeeping is needed).
        """
        blocked = self._blocked
        stats = self.stats
        studies = self._studies
        heapq.heapify(shared)
        deferred = self._deferred
        try:
            while shared:
                _rank, _sort, seq, key = heapq.heappop(shared)
                cq = self._classes[key]
                heap = cq.heap
                if not heap or heap[0][1] != seq:
                    continue  # stale head entry
                task = heap[0][2]
                if task.task_id in self._purged:
                    heapq.heappop(heap)
                    self._queued.discard(task.task_id)
                    self._purged.discard(task.task_id)
                    if heap:
                        nxt = heap[0]
                        heapq.heappush(
                            shared,
                            (self._rank(cq.study), nxt[0], nxt[1], key),
                        )
                    continue
                share = studies.get(cq.study)
                if self._tenant_at_quota(share):
                    # Over quota: the whole class waits for a release from
                    # one of the tenant's running tasks.  Not re-pushed —
                    # quota state cannot change within the round.
                    stats.quota_skips += 1
                    continue
                stats.placement_probes += 1
                try:
                    placed = self.scheduler._try_place(
                        task, self.pool, quarantined, blocked.get(key)
                    )
                except UnsatisfiableError as exc:
                    if exc.permanent:
                        raise
                    blocked[key] = set()
                    self._mark_starved(key, task, exc)
                    continue
                self._starved.pop(key, None)
                if placed is not None:
                    heapq.heappop(heap)
                    self._queued.discard(task.task_id)
                    self._charge_share(cq.study, placed)
                    out.append(placed)
                    stats.placed += 1
                    if heap:
                        restrict = blocked.get(key)
                        if restrict is not None and not restrict:
                            stats.blocked_skips += 1
                        else:
                            nxt = heap[0]
                            heapq.heappush(
                                shared,
                                (self._rank(cq.study), nxt[0], nxt[1], key),
                            )
                elif task.failed_nodes:
                    deferred.append(heapq.heappop(heap))
                    if heap:
                        nxt = heap[0]
                        heapq.heappush(
                            shared,
                            (self._rank(cq.study), nxt[0], nxt[1], key),
                        )
                else:
                    blocked[key] = set()
        finally:
            if deferred:
                for entry in deferred:
                    task = entry[2]
                    key = (task.study, task.definition.constraint_class())
                    heapq.heappush(self._classes[key].heap, entry)
                deferred.clear()

    def _place_class(
        self, key: Tuple, quarantined: List[str], out: List[Assignment]
    ) -> None:
        """Tight placement loop for a round with one participating class.

        Behaviourally identical to the merge loop in
        :meth:`_place_ready` when only one head exists: tasks are probed
        in heap (= policy) order, deferral and blocking semantics match,
        and a conclusive block ends the round.
        """
        cq = self._classes[key]
        heap = cq.heap
        blocked = self._blocked
        stats = self.stats
        purged = self._purged
        queued = self._queued
        try_place = self.scheduler._try_place
        pool = self.pool
        deferred = self._deferred
        try:
            while heap:
                task = heap[0][2]
                if task.task_id in purged:
                    heapq.heappop(heap)
                    queued.discard(task.task_id)
                    purged.discard(task.task_id)
                    continue
                stats.placement_probes += 1
                try:
                    placed = try_place(
                        task, pool, quarantined, blocked.get(key)
                    )
                except UnsatisfiableError as exc:
                    if exc.permanent:
                        raise
                    blocked[key] = set()
                    self._mark_starved(key, task, exc)
                    return
                self._starved.pop(key, None)
                if placed is not None:
                    heapq.heappop(heap)
                    queued.discard(task.task_id)
                    out.append(placed)
                    stats.placed += 1
                    restrict = blocked.get(key)
                    if restrict is not None and not restrict:
                        # The allocation itself exhausted the last woken
                        # node (pruned by try_allocate): conclusively
                        # blocked again — skip the would-fail re-probe.
                        stats.blocked_skips += 1
                        return
                elif task.failed_nodes:
                    deferred.append(heapq.heappop(heap))
                else:
                    blocked[key] = set()
                    return
        finally:
            if deferred:
                for entry in deferred:
                    heapq.heappush(heap, entry)
                deferred.clear()
