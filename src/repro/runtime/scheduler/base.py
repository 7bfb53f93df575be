"""Scheduler interface.

A scheduler is a pure policy: a total order over ready tasks plus a
placement probe.  The :class:`~repro.runtime.dispatch.DispatchEngine`
drives it; tasks it cannot place remain queued, so the paper's §4
behaviour — "if no further resources are available, tasks wait for the
resources … the next task is assigned a computational unit as soon as
one is available" — falls out of re-running a round on every release.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.runtime.fault import UnsatisfiableError
from repro.runtime.resources import Allocation, ResourcePool
from repro.runtime.task_definition import TaskDefinition, TaskInvocation


@dataclass
class Assignment:
    """A task placed on concrete resources, with the chosen implementation.

    ``extra_allocations`` holds the additional per-node allocations of a
    ``@multinode`` task (empty for ordinary tasks).
    """

    task: TaskInvocation
    allocation: Allocation
    implementation: TaskDefinition
    extra_allocations: List[Allocation] = field(default_factory=list)

    @property
    def all_allocations(self) -> List[Allocation]:
        """Primary plus extra allocations."""
        return [self.allocation, *self.extra_allocations]


def release_assignment(pool: ResourcePool, assignment: Assignment) -> None:
    """Release every allocation an assignment holds."""
    for alloc in assignment.all_allocations:
        pool.release(alloc)


class Scheduler(abc.ABC):
    """Abstract scheduling policy.

    A policy is fully described by :meth:`sort_key` (total order over
    ready tasks) plus :meth:`preferred_nodes` (node preference per task).
    The :class:`~repro.runtime.dispatch.DispatchEngine` probes
    :meth:`_try_place` in exactly the ``sort_key`` order.
    """

    def sort_key(self, task: TaskInvocation):
        """Comparable policy key; smaller schedules first.

        Must be static per task (it is computed once when the task enters
        the dispatch queue).  The default is submission order.
        """
        return task.task_id

    #: Shared "no preference" result — callers only read it, and
    #: returning one list avoids an allocation per placement probe.
    _NO_PREFERENCE: List[str] = []

    def preferred_nodes(self, task: TaskInvocation) -> List[str]:
        """Nodes to try first for ``task`` (default: none; read-only)."""
        return self._NO_PREFERENCE

    def _try_place(
        self,
        task: TaskInvocation,
        pool: ResourcePool,
        quarantined: Optional[Sequence[str]] = None,
        only: Optional[set] = None,
    ) -> Optional[Assignment]:
        """Try each candidate implementation until one fits a node.

        Besides the task's own failure history, quarantined nodes (per the
        pool's NodeHealth tracker) are avoided: a flaky node stops
        receiving work until its cool-down expires.  Both sets fall back
        to "use anyway" when no other node can take the task, so
        quarantine degrades capacity gracefully instead of stalling the
        study.  ``quarantined`` lets the caller compute the blocked set
        once per scheduling round instead of once per task.

        ``only`` (dispatch fast path) restricts single-node probes to the
        given node set — the engine passes the nodes that have freed
        capacity since this task's class was last conclusively blocked, so
        re-probes after a wake are O(woken) instead of O(cluster).  It is
        ignored whenever there are nodes to avoid (failure/quarantine
        paths have wait-vs-last-resort semantics that need the full scan)
        and for multi-node constraints.  The unsatisfiable verdict is
        always computed unrestricted, so restriction never changes *what*
        is placed or raised, only how many nodes are probed.
        """
        if quarantined is None:
            quarantined = pool.blocked_nodes()
        failed = task.failed_nodes
        if failed or quarantined:
            avoid = list(failed) + [n for n in quarantined if n not in failed]
        else:
            avoid = []
        candidates = task.definition.all_candidates()
        if not avoid:
            # Hot path: probe allocations first and compute the
            # unsatisfiable verdict lazily below — the verdict needs a
            # full candidate scan that successful probes never use.
            preferred = self.preferred_nodes(task)
            for impl in candidates:
                rc = impl.constraint
                if rc.nodes > 1:
                    allocs = self._allocate_multinode(pool, rc, avoid)
                    if allocs is not None:
                        return Assignment(task, allocs[0], impl, allocs[1:])
                    continue
                alloc = pool.try_allocate(rc, preferred=preferred, only=only)
                if alloc is not None:
                    return Assignment(task, alloc, impl)
            if only is not None:
                # Restricted wake re-probe: the class was conclusively
                # blocked by an earlier *unrestricted* round, which
                # already proved the task satisfiable, and any topology
                # change (node death/retire) clears restrictions via a
                # full wake — so skip the verdict scan.
                return None
        else:
            preferred = [
                n for n in self.preferred_nodes(task) if n not in avoid
            ]
            for impl in candidates:
                rc = impl.constraint
                if rc.nodes > 1:
                    allocs = self._allocate_multinode(pool, rc, avoid)
                    if allocs is not None:
                        return Assignment(task, allocs[0], impl, allocs[1:])
                    continue
                alloc = self._allocate_avoiding(pool, rc, preferred, avoid)
                if alloc is not None:
                    return Assignment(task, alloc, impl)
        any_possible = False
        any_static = False
        for impl in candidates:
            rc = impl.constraint
            if pool.static_candidates(rc):
                any_static = True
            if pool.anyone_could_ever_host(rc):
                any_possible = True
                break
        if not any_possible:
            names = ", ".join(i.constraint.describe() for i in candidates)
            raise UnsatisfiableError(
                f"task {task.label} is unsatisfiable: no live node can host "
                f"any implementation ({names})",
                task_label=task.label,
                constraint=names,
                permanent=not any_static,
            )
        return None

    @staticmethod
    def _allocate_multinode(
        pool: ResourcePool, rc, avoid: List[str]
    ) -> Optional[List[Allocation]]:
        """Allocate ``rc.cpu_units``/``rc.gpu_units`` on ``rc.nodes`` distinct nodes.

        All-or-nothing: partial allocations are rolled back.  Failed nodes
        are avoided when enough alternatives exist.
        """
        per_node = rc.per_node()
        allocs: List[Allocation] = []
        candidates = [
            w for w in pool.available_workers() if w.name not in avoid
        ] + [w for w in pool.available_workers() if w.name in avoid]
        for worker in candidates:
            if len(allocs) == rc.nodes:
                break
            if worker.name in {a.node for a in allocs}:
                continue
            alloc = pool.try_allocate(per_node, preferred=[worker.name])
            if alloc is None:
                break
            if alloc.node != worker.name or alloc.node in {a.node for a in allocs}:
                pool.release(alloc)
                continue
            allocs.append(alloc)
        if len(allocs) == rc.nodes:
            return allocs
        for a in allocs:
            pool.release(a)
        return None

    @staticmethod
    def _allocate_avoiding(
        pool: ResourcePool,
        rc,
        preferred: List[str],
        avoid: List[str],
    ) -> Optional[Allocation]:
        """Allocate, preferring ``preferred`` and avoiding ``avoid`` nodes.

        Fault-tolerance rule (paper §4): after a same-node retry fails the
        task is restarted *in another node* — hence ``avoid``.  If only
        avoided nodes remain, they are used as a last resort.
        """
        if avoid:
            order = [w.name for w in pool.available_workers() if w.name not in avoid]
            pref = [p for p in preferred if p not in avoid] + order
            alloc = pool.try_allocate(rc, preferred=pref)
            if alloc is not None and alloc.node in avoid:
                pool.release(alloc)
                alloc = None
            if alloc is not None:
                return alloc
            # Some non-avoided node could host this task once its current
            # work drains: wait for it rather than using an avoided node.
            for w in pool.available_workers():
                if w.name not in avoid and w.could_ever_host(rc):
                    return None
            # Last resort: every viable node is failed/quarantined.
            return pool.try_allocate(rc, preferred=preferred)
        return pool.try_allocate(rc, preferred=preferred)
