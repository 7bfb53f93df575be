"""Resource accounting: workers, slots, allocations, and the pool.

COMPSs enforces CPU/GPU affinity (paper §3, *Resource Management*): a task
constrained to one core gets exactly one core.  We model that with
explicit slot indices — an :class:`Allocation` names the concrete core and
GPU ids a task holds, which is also what makes per-core traces (Figs. 4–6)
possible.

The paper's deployments reserve cores for the COMPSs master/worker
processes ("the worker takes half of the cores in a node", §5); the pool
supports a per-node ``reserved_cores`` map for that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.pycompss_api.constraint import ResourceConstraint
from repro.simcluster.machines import ClusterSpec
from repro.simcluster.node import NodeSpec
from repro.util.validation import check_non_negative

#: Worker lifecycle states.  ``UP`` accepts placements; ``DRAINING``
#: finishes its running tasks but accepts no new ones (graceful
#: preemption); ``DOWN`` is dead (crashed or retired after a drain);
#: ``QUARANTINED`` is a *health* overlay rendered by ``describe()`` when
#: the NodeHealth tracker has benched an otherwise-up node.
UP = "up"
DRAINING = "draining"
DOWN = "down"
QUARANTINED = "quarantined"


class Allocation:
    """Concrete resources held by one running task.

    A ``__slots__`` class (was a frozen dataclass): one is created per
    placement, and the frozen-dataclass ``__init__`` — every field set
    via ``object.__setattr__`` — was measurable at 100k+ tasks.
    Instances are immutable by convention: nothing mutates an allocation
    after :meth:`Worker._take` builds it — except ``tenant``, which the
    dispatch engine stamps once at placement time (service mode) so the
    release path can decrement the owning tenant's slot count.
    """

    __slots__ = ("node", "cpu_ids", "gpu_ids", "memory_gb", "tenant")

    def __init__(
        self,
        node: str,
        cpu_ids: Tuple[int, ...],
        gpu_ids: Tuple[int, ...] = (),
        memory_gb: float = 0.0,
    ):
        self.node = node
        self.cpu_ids = cpu_ids
        self.gpu_ids = gpu_ids
        self.memory_gb = memory_gb
        self.tenant = ""

    @property
    def cpu_units(self) -> int:
        return len(self.cpu_ids)

    @property
    def gpu_units(self) -> int:
        return len(self.gpu_ids)

    def describe(self) -> str:
        gpu = f" gpus={list(self.gpu_ids)}" if self.gpu_ids else ""
        return f"{self.node} cores={list(self.cpu_ids)}{gpu}"

    def __repr__(self) -> str:
        return f"Allocation({self.describe()})"


class Worker:
    """Slot accounting for one node."""

    def __init__(self, spec: NodeSpec, reserved_cores: int = 0):
        check_non_negative("reserved_cores", reserved_cores)
        if reserved_cores >= spec.cpu_cores:
            raise ValueError(
                f"cannot reserve {reserved_cores} of {spec.cpu_cores} cores "
                f"on {spec.name}"
            )
        self.spec = spec
        self.reserved_cores = reserved_cores
        self._name = spec.name
        #: Core ids available for tasks: the runtime processes occupy the
        #: first ``reserved_cores`` ids.
        self._free_cpus = list(range(reserved_cores, spec.cpu_cores))
        self._free_gpus = list(range(spec.gpus))
        self._free_memory = spec.memory_gb
        self._state = UP

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def state(self) -> str:
        """Lifecycle state: UP, DRAINING, or DOWN."""
        return self._state

    @property
    def available(self) -> bool:
        """Whether the node accepts *new* placements (UP only)."""
        return self._state == UP

    @property
    def draining(self) -> bool:
        return self._state == DRAINING

    @property
    def free_cpu_units(self) -> int:
        return len(self._free_cpus)

    @property
    def free_gpu_units(self) -> int:
        return len(self._free_gpus)

    @property
    def task_capacity_cpus(self) -> int:
        """CPU units usable by tasks (total minus reserved)."""
        return self.spec.cpu_cores - self.reserved_cores

    def matches_labels(self, labels: Mapping[str, str]) -> bool:
        if not labels:
            return True
        spec_labels = self.spec.labels
        for k, v in labels.items():
            if spec_labels.get(k) != v:
                return False
        return True

    def can_host(self, rc: ResourceConstraint) -> bool:
        """Whether this worker can run the task *right now*."""
        # Millions of calls per large study: plain field reads, no
        # property hops.
        return (
            self._state == UP
            and rc.cpu_units <= len(self._free_cpus)
            and rc.gpu_units <= len(self._free_gpus)
            and rc.memory_gb <= self._free_memory
            and self.matches_labels(rc.node_labels)
        )

    def could_ever_host(self, rc: ResourceConstraint) -> bool:
        """Whether the constraint fits this worker when fully idle."""
        return (
            rc.cpu_units <= self.task_capacity_cpus
            and rc.gpu_units <= self.spec.gpus
            and rc.memory_gb <= self.spec.memory_gb
            and self.matches_labels(rc.node_labels)
        )

    def allocate(self, rc: ResourceConstraint) -> Allocation:
        """Take concrete slots; raises RuntimeError if they don't fit."""
        if not self.can_host(rc):
            raise RuntimeError(
                f"worker {self.name} cannot host {rc.describe()} now "
                f"(free: {self.free_cpu_units}CPU/{self.free_gpu_units}GPU)"
            )
        return self._take(rc)

    def _take(self, rc: ResourceConstraint) -> Allocation:
        """Take slots unchecked — caller must have verified ``can_host``."""
        cpus = tuple(self._free_cpus[: rc.cpu_units])
        del self._free_cpus[: rc.cpu_units]
        gpus = tuple(self._free_gpus[: rc.gpu_units])
        del self._free_gpus[: rc.gpu_units]
        self._free_memory -= rc.memory_gb
        return Allocation(self._name, cpus, gpus, rc.memory_gb)

    def release(self, alloc: Allocation) -> None:
        """Return an allocation's slots to the free lists."""
        if alloc.node != self.name:
            raise ValueError(f"allocation is for {alloc.node}, not {self.name}")
        self._free_cpus.extend(alloc.cpu_ids)
        self._free_cpus.sort()
        self._free_gpus.extend(alloc.gpu_ids)
        self._free_gpus.sort()
        self._free_memory += alloc.memory_gb

    def drain(self) -> None:
        """Stop accepting new placements; running tasks keep their slots."""
        if self._state == UP:
            self._state = DRAINING

    def fail(self) -> None:
        """Mark the node down (running allocations are handled by caller)."""
        self._state = DOWN

    def recover(self) -> None:
        """Bring the node back with all slots free."""
        self._state = UP
        self._free_cpus = list(range(self.reserved_cores, self.spec.cpu_cores))
        self._free_gpus = list(range(self.spec.gpus))
        self._free_memory = self.spec.memory_gb


class ResourcePool:
    """All workers of a cluster, with thread-safe allocation.

    Parameters
    ----------
    cluster:
        The cluster description.
    reserved_cores:
        Either an int applied to the *first* node only (the COMPSs
        master/worker node) or a mapping node-name → reserved cores.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        reserved_cores: "int | Mapping[str, int]" = 0,
    ):
        self.cluster = cluster
        self._lock = threading.Lock()
        #: Optional NodeHealth tracker (set by the runtime): quarantined
        #: nodes are deprioritised by the scheduler via blocked_nodes().
        self.health = None
        #: Optional capacity-change listener (the runtime's dispatch
        #: engine).  Must only buffer notifications — it is called with
        #: the pool lock held and must never call back into the pool.
        self.listener = None
        #: Constraint-class capacity index: class_key -> names of workers
        #: whose *static* capacity (idle node) fits the constraint.  Label
        #: and capacity specs never change after construction, so entries
        #: are invalidated only when a node is added.
        self._static_fit: Dict[Tuple, List[str]] = {}
        #: Same index as a set, for O(1) membership on the single-node
        #: restricted-probe fast path.
        self._static_fit_sets: Dict[Tuple, frozenset] = {}
        #: Per-tenant running-slot counts (service mode).  A "slot" is one
        #: in-flight placement: charged by the dispatch engine when it
        #: places a tenant's task, released automatically when the
        #: stamped allocation is returned.  Empty outside service mode.
        self._tenant_slots: Dict[str, int] = {}
        self.workers: Dict[str, Worker] = {}
        for i, spec in enumerate(cluster.nodes):
            if isinstance(reserved_cores, Mapping):
                reserve = int(reserved_cores.get(spec.name, 0))
            else:
                reserve = int(reserved_cores) if i == 0 else 0
            self.workers[spec.name] = Worker(spec, reserve)

    # ------------------------------------------------------------------
    def worker(self, name: str) -> Worker:
        return self.workers[name]

    def available_workers(self) -> List[Worker]:
        return [w for w in self.workers.values() if w.available]

    def static_candidates(self, rc: ResourceConstraint) -> List[str]:
        """Workers whose idle capacity fits ``rc``, from the class index.

        Availability is *not* considered (it changes with node failures);
        callers filter by ``Worker.available``.  Because specs are
        immutable, the answer is cached per constraint class and only
        invalidated when a node joins the pool.
        """
        key = rc.class_key
        names = self._static_fit.get(key)
        if names is None:
            per_node = rc.per_node()
            names = [
                w.name
                for w in self.workers.values()
                if w.could_ever_host(per_node)
            ]
            self._static_fit[key] = names
        return names

    def _static_fit_set(self, rc: ResourceConstraint) -> frozenset:
        key = rc.class_key
        members = self._static_fit_sets.get(key)
        if members is None:
            members = frozenset(self.static_candidates(rc))
            self._static_fit_sets[key] = members
        return members

    def try_allocate(
        self,
        rc: ResourceConstraint,
        preferred: Optional[Iterable[str]] = None,
        only: Optional[set] = None,
    ) -> Optional[Allocation]:
        """First-fit allocation, optionally trying ``preferred`` nodes first.

        Only workers in the constraint's static-fit candidate list are
        probed: a node whose idle capacity cannot hold ``rc`` can never
        satisfy ``can_host``, so skipping it is free.

        ``only`` restricts probing to the named nodes *and is pruned in
        place*: a node probed and found unable to host is discarded from
        the set (its free capacity can only shrink until the caller next
        observes a release on it, so re-probing it before then is wasted
        work).  Callers own the set and re-add nodes as releases land.
        """
        with self._lock:
            if only is not None:
                workers = self.workers
                if preferred:
                    for name in preferred:
                        if name in only and name in workers:
                            w = workers[name]
                            if w.can_host(rc):
                                alloc = w._take(rc)
                                if (
                                    rc.cpu_units > len(w._free_cpus)
                                    or rc.gpu_units > len(w._free_gpus)
                                    or rc.memory_gb > w._free_memory
                                ):
                                    # Exhausted by this very allocation:
                                    # prune now so the caller's next probe
                                    # short-circuits instead of re-probing.
                                    # (Capacity-only check: labels/state
                                    # cannot change under the pool lock.)
                                    only.discard(name)
                                return alloc
                            only.discard(name)
                if not only:
                    return None
                if len(only) == 1:
                    # One restricted node (a wake from a single release —
                    # the steady-state drain shape): first-fit order is
                    # irrelevant, so probe it directly.  A node outside
                    # the static-fit set is skipped but NOT pruned: its
                    # failure is specific to this constraint, and the
                    # caller's restrict set is shared across `@implement`
                    # alternatives with different constraints.
                    (name,) = only
                    if name not in self._static_fit_set(rc):
                        return None
                    w = workers.get(name)
                    if w is not None and w.can_host(rc):
                        alloc = w._take(rc)
                        if (
                            rc.cpu_units > len(w._free_cpus)
                            or rc.gpu_units > len(w._free_gpus)
                            or rc.memory_gb > w._free_memory
                        ):
                            only.discard(name)
                        return alloc
                    only.discard(name)
                    return None
                for name in self.static_candidates(rc):
                    if name in only:
                        w = workers[name]
                        if w.can_host(rc):
                            alloc = w._take(rc)
                            if (
                                rc.cpu_units > len(w._free_cpus)
                                or rc.gpu_units > len(w._free_gpus)
                                or rc.memory_gb > w._free_memory
                            ):
                                only.discard(name)
                            return alloc
                        only.discard(name)
                return None
            candidates = self.static_candidates(rc)
            order: List[Worker] = []
            seen = set()
            for name in preferred or ():
                w = self.workers.get(name)
                if w is not None and name not in seen:
                    order.append(w)
                    seen.add(name)
            order.extend(
                self.workers[n] for n in candidates if n not in seen
            )
            for w in order:
                if w.can_host(rc):
                    return w._take(rc)
        return None

    def release(self, alloc: Allocation) -> None:
        with self._lock:
            self.workers[alloc.node].release(alloc)
            if alloc.tenant:
                remaining = self._tenant_slots.get(alloc.tenant, 0) - 1
                if remaining > 0:
                    self._tenant_slots[alloc.tenant] = remaining
                else:
                    self._tenant_slots.pop(alloc.tenant, None)
                alloc.tenant = ""
            if self.listener is not None:
                self.listener.on_release(alloc.node)

    def charge_tenant(self, alloc: Allocation, tenant: str) -> None:
        """Stamp ``alloc`` as one running slot of ``tenant`` (service mode).

        Called by the dispatch engine at placement time; the matching
        decrement happens automatically in :meth:`release`.
        """
        with self._lock:
            alloc.tenant = tenant
            self._tenant_slots[tenant] = self._tenant_slots.get(tenant, 0) + 1

    def tenant_load(self, tenant: str) -> int:
        """Currently-running slots charged to ``tenant``."""
        with self._lock:
            return self._tenant_slots.get(tenant, 0)

    def blocked_nodes(self) -> List[str]:
        """Nodes the health tracker currently quarantines (may be empty)."""
        return self.health.blocked_nodes() if self.health is not None else []

    def anyone_could_ever_host(self, rc: ResourceConstraint) -> bool:
        """Whether any (available) worker could run this constraint when idle."""
        workers = self.workers
        return any(
            workers[n].available for n in self.static_candidates(rc)
        )

    def add_worker(self, spec: NodeSpec, reserved_cores: int = 0) -> Worker:
        """Grow the pool with a new node (cloud elasticity, paper §3).

        The node is also appended to the cluster description so traces
        and analyses see it.  Raises on duplicate names.
        """
        with self._lock:
            if spec.name in self.workers:
                raise ValueError(f"node {spec.name!r} already in the pool")
            worker = Worker(spec, reserved_cores)
            self.workers[spec.name] = worker
            self.cluster.nodes.append(spec)
            self._static_fit.clear()
            self._static_fit_sets.clear()
            if self.listener is not None:
                self.listener.on_topology_change()
            return worker

    def remove_worker(self, name: str) -> None:
        """Shrink the pool: the node stops accepting tasks.

        Running tasks are unaffected (their allocations stay valid until
        released); only *new* placements skip the node.  The node enters
        DRAINING — ``describe()`` keeps it distinguishable from a crash.
        """
        self.drain_worker(name)

    def drain_worker(self, name: str) -> None:
        """Put a node into DRAINING: no new placements, running tasks finish."""
        with self._lock:
            self.workers[name].drain()
            if self.listener is not None:
                self.listener.on_topology_change()

    def retire_worker(self, name: str) -> None:
        """Cleanly take a drained (or idle) node DOWN without data loss."""
        with self._lock:
            self.workers[name].fail()
            if self.listener is not None:
                self.listener.on_topology_change()

    def fail_node(self, name: str) -> None:
        with self._lock:
            self.workers[name].fail()
            if self.listener is not None:
                self.listener.on_topology_change()

    def recover_node(self, name: str) -> None:
        with self._lock:
            self.workers[name].recover()
            if self.listener is not None:
                self.listener.on_topology_change()

    @property
    def total_task_cpus(self) -> int:
        """Task-usable CPU units across available workers."""
        return sum(
            w.task_capacity_cpus for w in self.workers.values() if w.available
        )

    def describe(self) -> str:
        lines = [f"pool over {self.cluster.name}:"]
        quarantined = set(self.blocked_nodes())
        for w in self.workers.values():
            state = w.state
            if state == UP and w.name in quarantined:
                state = QUARANTINED
            if state != UP:
                state = state.upper()
            lines.append(
                f"  {w.name} [{state}] free {w.free_cpu_units}/"
                f"{w.task_capacity_cpus} cores, {w.free_gpu_units} GPUs"
            )
        return "\n".join(lines)
