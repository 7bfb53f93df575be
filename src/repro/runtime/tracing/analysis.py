"""Trace analysis — the quantitative version of the paper's Paraver reads.

Given a :class:`~repro.runtime.tracing.extrae.TraceRecorder`, this module
computes makespan, per-core busy time and utilisation, concurrency
profiles ("24 tasks were started at the same time", Fig. 5), idle nodes
("the first node seems empty as it is used by the worker", Fig. 6a), and
renders an ASCII Gantt chart per core — the textual equivalent of the
Paraver timeline screenshots.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.resilience import ResilienceEvent, ResilienceLog
from repro.runtime.tracing.extrae import TaskRecord, TraceRecorder
from repro.util.validation import check_positive

CoreKey = Tuple[str, str, int]  # (node, "cpu"|"gpu", index)


class TraceAnalysis:
    """Quantitative queries over a recorded trace.

    ``resilience`` (optional) is the runtime's :class:`ResilienceLog`;
    when present, resilience decisions (timeouts, speculation, node
    quarantine) are queryable alongside the trace and appear in
    :meth:`summary`.

    ``dispatch`` (optional) is the runtime's live
    :class:`~repro.runtime.dispatch.DispatchStats`; when present, the
    batching/scheduling counters are snapshotted at construction and
    queryable via :meth:`dispatch`.
    """

    def __init__(
        self,
        recorder: TraceRecorder,
        resilience: Optional[ResilienceLog] = None,
        dispatch=None,
    ):
        self.records: List[TaskRecord] = list(recorder.records)
        self.events = list(recorder.events)
        self.resilience: List[ResilienceEvent] = (
            list(resilience.events) if resilience is not None else []
        )
        self._dispatch: Dict[str, int] = (
            dispatch.snapshot() if dispatch is not None else {}
        )

    # ------------------------------------------------------------------
    # Basic aggregates
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """End of last task minus start of first (0 for empty traces)."""
        if not self.records:
            return 0.0
        return max(r.end for r in self.records) - min(r.start for r in self.records)

    @property
    def t0(self) -> float:
        """Earliest recorded start."""
        return min((r.start for r in self.records), default=0.0)

    def per_core_busy(self) -> Dict[CoreKey, float]:
        """Total busy seconds per (node, kind, core-id)."""
        busy: Dict[CoreKey, float] = defaultdict(float)
        for r in self.records:
            for c in r.cpu_ids:
                busy[(r.node, "cpu", c)] += r.duration
            for g in r.gpu_ids:
                busy[(r.node, "gpu", g)] += r.duration
        return dict(busy)

    def utilization(self, total_cores: Optional[int] = None) -> float:
        """Busy core-seconds / (cores × makespan).

        ``total_cores`` defaults to the number of distinct CPU cores that
        appear in the trace (i.e. utilisation of *used* cores).
        """
        if not self.records:
            return 0.0
        busy = self.per_core_busy()
        cpu_busy = sum(v for (n, kind, c), v in busy.items() if kind == "cpu")
        if total_cores is None:
            total_cores = len([k for k in busy if k[1] == "cpu"])
        if total_cores == 0:
            return 0.0
        span = self.makespan
        return cpu_busy / (total_cores * span) if span > 0 else 0.0

    def cores_used(self, node: Optional[str] = None) -> List[CoreKey]:
        """Distinct cores that ran at least one task."""
        keys = set()
        for r in self.records:
            if node is not None and r.node != node:
                continue
            for c in r.cpu_ids:
                keys.add((r.node, "cpu", c))
            for g in r.gpu_ids:
                keys.add((r.node, "gpu", g))
        return sorted(keys)

    def nodes_used(self) -> List[str]:
        """Distinct nodes that ran at least one task."""
        return sorted({r.node for r in self.records})

    def idle_nodes(self, all_nodes: Sequence[str]) -> List[str]:
        """Nodes of ``all_nodes`` with no task record (Fig. 6a worker node)."""
        used = set(self.nodes_used())
        return [n for n in all_nodes if n not in used]

    # ------------------------------------------------------------------
    # Concurrency
    # ------------------------------------------------------------------
    def concurrency_profile(self) -> List[Tuple[float, int]]:
        """Stepwise (time, #running-tasks) profile from record boundaries."""
        deltas: List[Tuple[float, int]] = []
        for r in self.records:
            deltas.append((r.start, +1))
            deltas.append((r.end, -1))
        deltas.sort()
        profile: List[Tuple[float, int]] = []
        running = 0
        for t, d in deltas:
            running += d
            if profile and profile[-1][0] == t:
                profile[-1] = (t, running)
            else:
                profile.append((t, running))
        return profile

    def max_concurrency(self) -> int:
        """Peak number of simultaneously-running tasks."""
        return max((n for _, n in self.concurrency_profile()), default=0)

    def per_node_utilization(self, cores_per_node: Optional[Dict[str, int]] = None):
        """Busy-core-seconds / (cores × makespan) per node.

        ``cores_per_node`` maps node name → CPU core count; without it,
        the denominator uses the cores each node actually exercised (so
        values read as utilisation of *used* cores).
        """
        span = self.makespan
        if span <= 0:
            return {}
        busy_per_node: Dict[str, float] = defaultdict(float)
        used_cores: Dict[str, set] = defaultdict(set)
        for r in self.records:
            busy_per_node[r.node] += r.duration * len(r.cpu_ids)
            used_cores[r.node].update(r.cpu_ids)
        out: Dict[str, float] = {}
        for node, busy in busy_per_node.items():
            denom = (
                cores_per_node.get(node, len(used_cores[node]))
                if cores_per_node
                else len(used_cores[node])
            )
            out[node] = busy / (denom * span) if denom else 0.0
        return out

    def busy_cores_timeline(
        self, n_points: int = 50
    ) -> List[Tuple[float, int]]:
        """Sampled (time, #busy CPU cores) series over the makespan.

        The utilisation-over-time view a Paraver user reads off the
        timeline colour density; drives utilisation plots in reports.
        """
        check_positive("n_points", n_points)
        if not self.records:
            return []
        t0 = self.t0
        t1 = t0 + self.makespan
        times = [t0 + (t1 - t0) * i / max(1, n_points - 1) for i in range(n_points)]
        out: List[Tuple[float, int]] = []
        for t in times:
            busy = sum(
                len(r.cpu_ids)
                for r in self.records
                if r.start <= t < r.end
            )
            out.append((t, busy))
        return out

    def started_within(self, window: float) -> int:
        """Tasks whose start lies within ``window`` seconds of the first.

        The Fig. 5 observation — "24 tasks were started at the same time"
        — is this count with a small window.
        """
        if not self.records:
            return 0
        t0 = min(r.start for r in self.records)
        return sum(1 for r in self.records if r.start - t0 <= window)

    def stragglers(self) -> List[TaskRecord]:
        """Records that started after the initial wave (start > t0)."""
        if not self.records:
            return []
        t0 = min(r.start for r in self.records)
        return sorted(
            (r for r in self.records if r.start > t0), key=lambda r: r.start
        )

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def resilience_counts(self) -> Dict[str, int]:
        """``event kind → occurrences`` over the resilience log."""
        out: Dict[str, int] = {}
        for e in self.resilience:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def worker_churn(self) -> Dict[str, int]:
        """Worker-pool lifecycle summary (``backend="workers"`` studies).

        Counts of crashes contained, deadline hard-kills, graceful
        recycles, and poison-task quarantines — the process-churn view of
        a supervised-pool run (all zero on other backends).
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "crashes": counts.get(rsl.WORKER_CRASH, 0),
            "hard_kills": counts.get(rsl.WORKER_KILLED, 0),
            "recycles": counts.get(rsl.WORKER_RECYCLED, 0),
            "poisoned_tasks": counts.get(rsl.POISON_TASK, 0),
        }

    def data_integrity(self) -> Dict[str, int]:
        """Data-plane integrity summary (``verify_outputs`` studies).

        Counts of detected corruptions, replica repairs, lineage
        recomputes, and transfer retries/failures — the end-to-end
        data-integrity view of a run (all zero when verification is off
        and no transfer chaos was injected).
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "corruptions": counts.get(rsl.DATA_CORRUPT, 0),
            "replica_repairs": counts.get(rsl.REPLICA_REPAIR, 0),
            "recomputes": counts.get(rsl.INTEGRITY_RECOMPUTE, 0),
            "transfer_retries": counts.get(rsl.TRANSFER_RETRY, 0),
            "transfer_failures": counts.get(rsl.TRANSFER_FAILED, 0),
        }

    def churn(self) -> Dict[str, int]:
        """Node-churn summary (elastic / spot-market studies).

        Counts of preemption notices received, graceful drains started
        and completed, drain deadlines that escalated to failures, nodes
        lost outright, nodes that rejoined, constraint classes that
        starved, and consumers cancelled because a producer died
        terminally — the cluster-elasticity view of a run (all zero on
        a static cluster).
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "preemption_notices": counts.get(rsl.PREEMPTION_NOTICE, 0),
            "drains_started": counts.get(rsl.NODE_DRAINING, 0),
            "drains_completed": counts.get(rsl.DRAIN_COMPLETE, 0),
            "drain_deadline_escalations": counts.get(rsl.DRAIN_DEADLINE, 0),
            "nodes_lost": counts.get(rsl.NODE_LOST, 0),
            "nodes_rejoined": counts.get(rsl.NODE_REJOINED, 0),
            "classes_starved": counts.get(rsl.CLASS_STARVED, 0),
            "upstream_cancellations": counts.get(rsl.UPSTREAM_CANCELLED, 0),
        }

    def service(self) -> Dict[str, int]:
        """Multi-tenant service summary (``repro serve`` daemons).

        Counts of studies admitted / completed / failed / cancelled /
        suspended and of load-shedding decisions — the tenancy view of a
        daemon life (all zero outside service mode).  Suspension is
        distinct from shedding: suspended studies parked warm and resume.
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "studies_admitted": counts.get(rsl.STUDY_ADMITTED, 0),
            "studies_completed": counts.get(rsl.STUDY_COMPLETED, 0),
            "studies_failed": counts.get(rsl.STUDY_FAILED, 0),
            "studies_cancelled": counts.get(rsl.STUDY_CANCELLED, 0),
            "studies_suspended": counts.get(rsl.STUDY_SUSPENDED, 0),
            "loads_shed": counts.get(rsl.LOAD_SHED, 0),
        }

    def preemption(self) -> Dict[str, int]:
        """Cooperative trial-preemption summary.

        Counts of trials flagged to suspend, suspend spills that landed
        on disk, trials resumed from their epoch cursor, async-ASHA rung
        promotions and whole-study suspensions — the warm pause/resume
        view of a run (all zero when preemption never triggered).
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "trials_suspended": counts.get(rsl.TRIAL_SUSPENDED, 0),
            "suspend_spills": counts.get(rsl.SUSPEND_SPILL, 0),
            "trials_resumed": counts.get(rsl.TRIAL_RESUMED, 0),
            "rung_promotions": counts.get(rsl.RUNG_PROMOTION, 0),
            "studies_suspended": counts.get(rsl.STUDY_SUSPENDED, 0),
        }

    def reuse(self) -> Dict[str, int]:
        """Cross-trial reuse-cache summary (verified stage memoisation).

        Counts of verified cache hits, misses, submissions joined to an
        identical in-flight node of their study, corrupt entries detected
        at verify time and LRU evictions — the stage-reuse view of a run
        (all zero when the cache is off).
        """
        from repro.runtime import resilience as rsl

        counts = self.resilience_counts()
        return {
            "cache_hits": counts.get(rsl.CACHE_HIT, 0),
            "cache_misses": counts.get(rsl.CACHE_MISS, 0),
            "joined": counts.get(rsl.CACHE_JOIN, 0),
            "cache_corrupt": counts.get(rsl.CACHE_CORRUPT, 0),
            "cache_evictions": counts.get(rsl.CACHE_EVICT, 0),
        }

    def dispatch(self) -> Dict[str, float]:
        """Dispatch/batching summary (batched scheduling observability).

        ``rounds`` is the number of scheduling rounds the engine ran;
        with wake batching on, one round drains *all* completions that
        arrived in a simulator wake, so ``avg_batch_size`` (tasks placed
        per round) ≫ 1 is the signature of batching paying off.
        ``wakes`` counts blocked constraint classes woken by freed
        capacity; ``full_wakes`` counts topology changes that re-probe
        every class.  All zero when no dispatch stats were captured.
        """
        d = self._dispatch
        rounds = d.get("rounds", 0)
        placed = d.get("placed", 0)
        return {
            "rounds": rounds,
            "placed": placed,
            "avg_batch_size": round(placed / rounds, 3) if rounds else 0.0,
            "wakes": d.get("wakes", 0),
            "full_wakes": d.get("full_wakes", 0),
            "placement_probes": d.get("placement_probes", 0),
            "blocked_skips": d.get("blocked_skips", 0),
            "fair_rounds": d.get("fair_rounds", 0),
            "quota_skips": d.get("quota_skips", 0),
        }

    def resilience_events(self, kind: Optional[str] = None) -> List[ResilienceEvent]:
        """Resilience events, optionally filtered to one kind."""
        if kind is None:
            return list(self.resilience)
        return [e for e in self.resilience if e.kind == kind]

    def resilience_timeline(self, max_rows: int = 40) -> str:
        """One line per resilience event, in decision order."""
        if not self.resilience:
            return "(no resilience events)"
        lines = [e.describe() for e in self.resilience[:max_rows]]
        if len(self.resilience) > max_rows:
            lines.append(f"... ({len(self.resilience) - max_rows} more events)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def gantt(self, width: int = 78, max_rows: int = 64) -> str:
        """ASCII Gantt chart: one row per core, '#' where a task runs.

        The textual counterpart of the Paraver timelines in Figs. 4–6:
        X axis is time, Y axis is the resource.
        """
        check_positive("width", width)
        if not self.records:
            return "(empty trace)"
        t0 = self.t0
        span = max(self.makespan, 1e-9)
        rows: Dict[CoreKey, List[str]] = {}
        for key in self.cores_used():
            rows[key] = [" "] * width
        for r in self.records:
            c0 = int((r.start - t0) / span * (width - 1))
            c1 = max(c0, int((r.end - t0) / span * (width - 1)))
            mark = "#" if r.success else "x"
            for c in r.cpu_ids:
                row = rows[(r.node, "cpu", c)]
                for i in range(c0, c1 + 1):
                    row[i] = mark
            for g in r.gpu_ids:
                row = rows[(r.node, "gpu", g)]
                for i in range(c0, c1 + 1):
                    row[i] = mark
        lines = [f"gantt: {len(rows)} resources, makespan {span:.1f}s"]
        for i, (key, cells) in enumerate(sorted(rows.items())):
            if i >= max_rows:
                lines.append(f"... ({len(rows) - max_rows} more resources)")
                break
            node, kind, idx = key
            label = f"{node}/{kind}{idx:03d}"
            lines.append(f"{label:<18}|{''.join(cells)}|")
        return "\n".join(lines)

    def summary(self) -> str:
        """Multi-line text summary (makespan, utilisation, concurrency)."""
        text = (
            f"tasks: {len(self.records)}  makespan: {self.makespan:.1f}s  "
            f"peak concurrency: {self.max_concurrency()}  "
            f"utilisation(used cores): {self.utilization():.1%}  "
            f"nodes: {len(self.nodes_used())}"
        )
        if self.resilience:
            counts = self.resilience_counts()
            parts = ", ".join(f"{k}: {counts[k]}" for k in sorted(counts))
            text += f"\nresilience events: {parts}"
        return text
