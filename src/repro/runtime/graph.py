"""The dynamic task dependency graph (paper §4, Fig. 3).

Nodes are :class:`~repro.runtime.task_definition.TaskInvocation` ids,
edges carry the data-version labels produced by the access processor.
The graph maintains the ready set (tasks whose predecessors have all
completed) consumed by the scheduler.

Adjacency is plain dict-of-lists — the graph sits on the submit/complete
hot path, and dict operations are several times cheaper than DiGraph
node/edge bookkeeping at million-task scale.  Only tasks with an edge have
an adjacency list, and only tasks still waiting on a predecessor have a
pending count: an independent task (the common HPO shape) costs the graph
one ``_tasks`` entry.  A :attr:`nx_graph` view is still built on demand
for callers that want the networkx API.

Consumption: with counting on, the graph keeps each producer's number
of unfinished consumers, and :meth:`TaskGraph.mark_done` acts on a DONE
producer whose last consumer just completed.  Two policies use the one
count:

* streaming (``stream_completed``) frees the whole task — its node,
  edges and counters leave the graph so resident memory tracks the
  *active frontier* rather than the full study history.  Introspection
  (``tasks()``, DOT export) and lineage recovery then only see live
  tasks;
* otherwise ``on_consumed`` (the runtime's
  :class:`~repro.runtime.reuse.StageRelease`) is told, and drops a
  published cacheable value from driver memory.  The task record and
  its edges stay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.runtime.task_definition import TaskInvocation, TaskState


class TaskGraph:
    """Dependency DAG with ready-set maintenance.

    The ready set is a deque (O(1) at both ends: FIFO pops and front
    requeues of fault-tolerance resubmissions).  ``ready_ops`` counts
    every ready-set maintenance operation — pops, pushes, and
    successor-edge visits on completion — so tests can assert the
    bookkeeping stays linear in nodes + edges rather than quadratic.
    """

    def __init__(self) -> None:
        self._tasks: Dict[int, TaskInvocation] = {}
        #: Adjacency: task_id -> successor/predecessor ids, in edge order
        #: (no entry for a task without successors/predecessors).
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        #: (src_id, dst_id) -> data-version label (only non-empty labels).
        self._labels: Dict[Tuple[int, int], str] = {}
        #: task_id -> predecessors not yet DONE (no entry when zero).
        self._pending_preds: Dict[int, int] = {}
        self._ready: Deque[int] = deque()  # FIFO by submission order
        #: Ready-set maintenance operation counter (see class docstring).
        self.ready_ops: int = 0
        #: Streaming mode: free completed tasks whose consumers are all
        #: complete (set from ``RuntimeConfig.stream_completed``).
        self.stream_completed: bool = False
        #: Release policy when not streaming: called with a DONE task
        #: whose last unfinished consumer just completed.
        self.on_consumed: Optional[Callable[[TaskInvocation], None]] = None
        #: task_id -> number of its successors not yet DONE (kept while
        #: streaming or ``on_consumed`` is set; no entry when zero).
        self._unfinished_succs: Dict[int, int] = {}
        #: Count of tasks freed by streaming (observability / tests).
        self.freed_tasks: int = 0
        #: Optional hook invoked with each freed task (the runtime uses
        #: it to drop its output-future registry entry).
        self.on_free: Optional[Callable[[TaskInvocation], None]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(
        self,
        task: TaskInvocation,
        dependencies: Iterable[TaskInvocation],
        edge_labels: Optional[Dict[int, str]] = None,
    ) -> None:
        """Insert ``task`` depending on ``dependencies`` (may be empty)."""
        tid = task.task_id
        if tid in self._tasks:
            raise ValueError(f"task {task.label} already in graph")
        if self.stream_completed and task.state is TaskState.DONE:
            # Restored / cache hit: it never reaches mark_done, so no
            # later event could free it.  Treat it like a computed task
            # that finished before its consumers were submitted.
            self.freed_tasks += 1
            if self.on_free is not None:
                self.on_free(task)
            return
        self._tasks[tid] = task
        succ = self._succ
        pred_list: List[int] = []
        streaming = self.stream_completed
        # A task DONE at add never reaches mark_done, so it is nobody's
        # unfinished consumer.
        counting = (
            streaming or self.on_consumed is not None
        ) and task.state is not TaskState.DONE
        pending = 0
        for dep in dependencies:
            dep_id = dep.task_id
            if dep_id == tid:
                raise ValueError(f"task {task.label} depends on itself")
            if dep_id not in self._tasks:
                if streaming and dep.state == TaskState.DONE:
                    # The producer was freed (its earlier consumers all
                    # completed): it is done by construction, no edge to
                    # record.
                    continue
                raise ValueError(
                    f"dependency {dep.label} of {task.label} not in graph"
                )
            dep_succs = succ.get(dep_id)
            if dep_succs is None:
                succ[dep_id] = [tid]
            else:
                dep_succs.append(tid)
            pred_list.append(dep_id)
            if edge_labels:
                label = edge_labels.get(dep_id, "")
                if label:
                    self._labels[(dep_id, tid)] = label
            if dep.state is not TaskState.DONE:
                pending += 1
            if counting:
                self._unfinished_succs[dep_id] = (
                    self._unfinished_succs.get(dep_id, 0) + 1
                )
        if pred_list:
            self._pred[tid] = pred_list
        if pending:
            self._pending_preds[tid] = pending
        elif task.state is not TaskState.DONE:
            # A task restored from a checkpoint enters the graph already
            # DONE: it holds its journaled result and must never reach
            # the dispatcher.
            task.state = TaskState.READY
            self._ready.append(tid)
            self.ready_ops += 1

    # ------------------------------------------------------------------
    # Execution-time updates
    # ------------------------------------------------------------------
    def pop_ready(self, limit: Optional[int] = None) -> List[TaskInvocation]:
        """Remove and return up to ``limit`` ready tasks (FIFO)."""
        ready = self._ready
        n = len(ready) if limit is None else min(limit, len(ready))
        if not n:
            return []
        tasks = self._tasks
        popleft = ready.popleft
        out = [tasks[popleft()] for _ in range(n)]
        self.ready_ops += n
        return out

    def peek_ready(self) -> List[TaskInvocation]:
        """Ready tasks without removing them."""
        return [self._tasks[tid] for tid in self._ready]

    def requeue(self, tasks: Iterable[TaskInvocation]) -> None:
        """Put unschedulable ready tasks back (front, preserving order)."""
        ids = [t.task_id for t in tasks]
        self._ready.extendleft(reversed(ids))
        self.ready_ops += len(ids)

    def mark_done(self, task: TaskInvocation) -> List[TaskInvocation]:
        """Mark completion; returns newly-ready successor tasks.

        This is also where consumption is decided: a DONE predecessor
        whose last unfinished consumer this was is freed (streaming, as
        is the task itself if it has no pending consumers) or handed to
        ``on_consumed``.
        """
        task.state = TaskState.DONE
        tid = task.task_id
        newly_ready: List[TaskInvocation] = []
        tasks = self._tasks
        pending_preds = self._pending_preds
        succs = self._succ.get(tid)
        if succs:
            ready_append = self._ready.append
            self.ready_ops += len(succs)
            for succ_id in succs:
                # No entry: the successor was not waiting on this task
                # (it was running or done when lineage recovery
                # invalidated this task).
                left = pending_preds.get(succ_id, 0) - 1
                if left > 0:
                    pending_preds[succ_id] = left
                    continue
                pending_preds.pop(succ_id, None)
                if left == 0:
                    succ = tasks[succ_id]
                    if succ.state is TaskState.SUBMITTED:
                        succ.state = TaskState.READY
                        ready_append(succ_id)
                        newly_ready.append(succ)
        streaming = self.stream_completed
        if streaming or self.on_consumed is not None:
            unfinished = self._unfinished_succs
            for pred_id in self._pred.get(tid, ()):
                left = unfinished.get(pred_id, 0) - 1
                if left > 0:
                    unfinished[pred_id] = left
                else:
                    unfinished.pop(pred_id, None)
                    pred = tasks.get(pred_id)
                    if pred is not None and pred.state is TaskState.DONE:
                        if streaming:
                            self._free(pred_id)
                        else:
                            self.on_consumed(pred)
            if streaming and not unfinished.get(tid):
                self._free(tid)
        return newly_ready

    def _free(self, tid: int) -> None:
        """Drop a fully-consumed completed task from the graph."""
        task = self._tasks.pop(tid, None)
        if task is None:
            return
        self._pending_preds.pop(tid, None)
        self._unfinished_succs.pop(tid, None)
        labels = self._labels
        for pred_id in self._pred.pop(tid, ()):
            labels.pop((pred_id, tid), None)
        for succ_id in self._succ.pop(tid, ()):
            labels.pop((tid, succ_id), None)
        self.freed_tasks += 1
        if self.on_free is not None:
            self.on_free(task)

    # ------------------------------------------------------------------
    # Lineage (data recovery after node loss)
    # ------------------------------------------------------------------
    def _reachable(self, start: int, adjacency: Dict[int, List[int]]) -> List[int]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        seen.discard(start)
        return sorted(seen)

    def descendants(self, task: TaskInvocation) -> List[TaskInvocation]:
        """All transitive successors (everything fed by ``task``'s data)."""
        tasks = self._tasks
        return [
            tasks[tid]
            for tid in self._reachable(task.task_id, self._succ)
            if tid in tasks
        ]

    def invalidate(self, tasks: Iterable[TaskInvocation]) -> List[TaskInvocation]:
        """Un-complete ``tasks`` so they re-execute (lineage recovery).

        Each task returns to SUBMITTED; successors that had counted a
        previously-DONE member as done wait again (READY successors are
        pulled back out of the ready set).  Pending-predecessor counts
        are then recomputed for the invalidated set and any whose
        dependencies all survive re-enter the ready set immediately.
        Returns the newly-ready tasks.  The batch may also contain
        READY/RUNNING tasks (aborted consumers of destroyed data); their
        successors already counted them as pending, so only DONE members
        trigger successor bumps.  RUNNING/DONE successors *outside* the
        batch are the caller's problem (kill the attempt, or leave the
        already-computed result alone).
        """
        batch = {t.task_id: t for t in tasks}
        was_done = {
            tid for tid, t in batch.items() if t.state == TaskState.DONE
        }
        for t in batch.values():
            if t.state == TaskState.READY:
                try:
                    self._ready.remove(t.task_id)
                    self.ready_ops += 1
                except ValueError:
                    pass  # already handed to the dispatcher
            t.state = TaskState.SUBMITTED
        live = self._tasks
        pending_preds = self._pending_preds
        if self.stream_completed or self.on_consumed is not None:
            # A DONE member re-runs: it is an unfinished consumer again.
            unfinished = self._unfinished_succs
            for tid in was_done:
                for pred_id in self._pred.get(tid, ()):
                    if pred_id in live:
                        unfinished[pred_id] = unfinished.get(pred_id, 0) + 1
        for tid in was_done:
            for succ_id in self._succ.get(tid, ()):
                succ = live.get(succ_id)
                if succ is None or succ_id in batch:
                    continue  # freed (DONE), or recomputed below
                if succ.state == TaskState.READY:
                    succ.state = TaskState.SUBMITTED
                    try:
                        self._ready.remove(succ_id)
                        self.ready_ops += 1
                    except ValueError:
                        pass  # already handed to the dispatcher
                if succ.state == TaskState.SUBMITTED:
                    pending_preds[succ_id] = pending_preds.get(succ_id, 0) + 1
        newly_ready: List[TaskInvocation] = []
        for t in batch.values():
            # A predecessor streaming already freed was DONE.
            pending = sum(
                1
                for pred_id in self._pred.get(t.task_id, ())
                if pred_id in live and live[pred_id].state != TaskState.DONE
            )
            if pending:
                pending_preds[t.task_id] = pending
            else:
                pending_preds.pop(t.task_id, None)
                t.state = TaskState.READY
                self._ready.append(t.task_id)
                self.ready_ops += 1
                newly_ready.append(t)
        return newly_ready

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    def tasks(self) -> List[TaskInvocation]:
        """All (live) tasks in submission order."""
        return [self._tasks[tid] for tid in sorted(self._tasks)]

    def unfinished(self) -> List[TaskInvocation]:
        """Tasks not yet DONE."""
        return [t for t in self._tasks.values() if t.state != TaskState.DONE]

    def predecessors(self, task: TaskInvocation) -> List[TaskInvocation]:
        pred_ids = self._pred.get(task.task_id)
        if not pred_ids:  # an independent task: once per simulated start
            return []
        tasks = self._tasks
        return [tasks[tid] for tid in pred_ids if tid in tasks]

    def successors(self, task: TaskInvocation) -> List[TaskInvocation]:
        tasks = self._tasks
        return [
            tasks[tid]
            for tid in self._succ.get(task.task_id, ())
            if tid in tasks
        ]

    def edge_label(self, src: TaskInvocation, dst: TaskInvocation) -> str:
        key = (src.task_id, dst.task_id)
        if key not in self._labels and dst.task_id not in self._succ.get(
            src.task_id, ()
        ):
            raise KeyError(key)
        return self._labels.get(key, "")

    def edges(self):
        """Iterate ``(src_task, dst_task, label)`` triples."""
        tasks = self._tasks
        labels = self._labels
        succ = self._succ
        # Producer order: an adjacency entry is created at a task's
        # first consumer, not at the task itself.
        for u in sorted(succ):
            src = tasks.get(u)
            if src is None:
                continue
            for v in succ[u]:
                dst = tasks.get(v)
                if dst is not None:
                    yield src, dst, labels.get((u, v), "")

    @property
    def nx_graph(self):
        """A networkx DiGraph view (built on demand; mutations ignored)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._tasks)
        for u, succs in self._succ.items():
            for v in succs:
                g.add_edge(u, v, label=self._labels.get((u, v), ""))
        return g

    def critical_path_length(self, duration_of=None) -> float:
        """Longest path weight through the DAG.

        ``duration_of(task) -> float`` defaults to measured durations
        (``end_time - start_time``), or 1.0 when unknown — giving depth.
        """

        def dur(tid: int) -> float:
            t = self._tasks[tid]
            if duration_of is not None:
                return float(duration_of(t))
            if t.start_time is not None and t.end_time is not None:
                return t.end_time - t.start_time
            return 1.0

        # Kahn's algorithm over the live graph (dependencies always carry
        # smaller ids than their consumers, but lineage invalidation can
        # touch counts, so compute indegrees fresh).
        indeg = {tid: len(self._pred.get(tid, ())) for tid in self._tasks}
        queue: Deque[int] = deque(
            tid for tid, d in indeg.items() if d == 0
        )
        best: Dict[int, float] = {}
        while queue:
            tid = queue.popleft()
            base = 0.0
            for pred_id in self._pred.get(tid, ()):
                b = best.get(pred_id, 0.0)
                if b > base:
                    base = b
            best[tid] = base + dur(tid)
            for succ_id in self._succ.get(tid, ()):
                indeg[succ_id] -= 1
                if indeg[succ_id] == 0:
                    queue.append(succ_id)
        return max(best.values(), default=0.0)
