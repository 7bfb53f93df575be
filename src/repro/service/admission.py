"""Admission control and load shedding for the service daemon.

The controller answers one question — *may this study enter the queue?* —
with a typed verdict, and one more — *which queued study starts next?* —
implementing per-tenant concurrency quotas and priority ordering.  A
memory watchdog (driven by an injectable RSS probe so tests can fake
pressure) flips the daemon into shedding mode *before* the process hits
its ceiling: new submissions are rejected, lowest-priority *running*
studies are suspended warm (their trials spill training state and the
study re-enqueues once pressure clears), and only then are
queued-but-unstarted studies shed outright.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.service.errors import (
    QueueFullError,
    ServiceOverloadedError,
    TenantQuotaError,
)
from repro.util.knobs import knob, validate
from repro.util.validation import check_positive


@dataclass
class AdmissionConfig:
    """Backpressure knobs of one service daemon (see each ``help``)."""

    max_queued_studies: int = knob(
        16, check_positive, flag="--max-queued-studies",
        help="bound on the queue of not-yet-running studies "
        "(QueueFullError beyond it)",
    )
    max_queued_per_tenant: int = knob(
        8, check_positive, flag="--max-queued-per-tenant",
        help="per-tenant queue share; beyond it only that tenant's "
        "submissions get TenantQuotaError",
    )
    max_studies_per_tenant: int = knob(
        2, check_positive, flag="--max-studies-per-tenant",
        help="cap on one tenant's concurrently running studies "
        "(over-quota studies wait in the queue)",
    )
    max_concurrent_studies: int = knob(
        4, check_positive, flag="--max-concurrent-studies",
        help="daemon-wide cap on running studies (worker threads)",
    )
    rss_limit_mb: Optional[float] = knob(
        None, check_positive, flag="--rss-limit-mb",
        help="memory ceiling: while over it the watchdog suspends and "
        "sheds studies and rejects submissions (ServiceOverloadedError)",
    )

    def __post_init__(self) -> None:
        validate(self)


def process_rss_mb() -> float:
    """Resident set size of this process in MB (Linux ``/proc``).

    Falls back to 0 (never sheds) where ``/proc/self/statm`` is missing.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return 0.0


class AdmissionController:
    """Stateless policy over the daemon's live queue/running views.

    The daemon owns the actual queue; this class only encodes the
    decisions, so every rule is unit-testable without a daemon.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        rss_fn: Optional[Callable[[], float]] = None,
    ):
        self.config = config or AdmissionConfig()
        self._rss_fn = rss_fn or process_rss_mb

    # ------------------------------------------------------------------
    def overloaded(self) -> bool:
        """True when the memory watchdog says to shed load."""
        limit = self.config.rss_limit_mb
        return limit is not None and self._rss_fn() > limit

    def check_admission(
        self, tenant: str, queued_tenants: Sequence[str]
    ) -> None:
        """Raise the typed rejection for a submission, or return None.

        ``queued_tenants`` is the tenant of every currently-queued study
        (duplicates included) — the only queue state the rules need.
        """
        if self.overloaded():
            raise ServiceOverloadedError(
                f"daemon over its memory ceiling "
                f"({self._rss_fn():.0f} MB > "
                f"{self.config.rss_limit_mb:g} MB); shedding load"
            )
        if len(queued_tenants) >= self.config.max_queued_studies:
            raise QueueFullError(
                f"study queue full ({self.config.max_queued_studies} "
                "queued); retry after studies drain"
            )
        mine = sum(1 for t in queued_tenants if t == tenant)
        if mine >= self.config.max_queued_per_tenant:
            raise TenantQuotaError(
                f"tenant {tenant!r} already has {mine} studies queued "
                f"(max_queued_per_tenant={self.config.max_queued_per_tenant})"
            )

    def pick_next(
        self,
        queued: Sequence[object],
        running_tenants: Sequence[str],
        n_running: int,
    ) -> List[int]:
        """Indices into ``queued`` of the studies to start now.

        ``queued`` items expose ``tenant`` and ``priority`` attributes
        and arrive in submission order; selection is by priority band
        (higher first) then FIFO, skipping tenants at their running-study
        quota.  Returns at most the free concurrency slots.
        """
        slots = self.config.max_concurrent_studies - n_running
        if slots <= 0:
            return []
        loads = {}
        for t in running_tenants:
            loads[t] = loads.get(t, 0) + 1
        order = sorted(
            range(len(queued)),
            key=lambda i: (-getattr(queued[i], "priority", 0), i),
        )
        chosen: List[int] = []
        for i in order:
            if len(chosen) >= slots:
                break
            tenant = getattr(queued[i], "tenant", "")
            if loads.get(tenant, 0) >= self.config.max_studies_per_tenant:
                continue
            loads[tenant] = loads.get(tenant, 0) + 1
            chosen.append(i)
        return chosen

    def suspend_victims(self, running: Sequence[object]) -> List[int]:
        """Indices of *running* studies to suspend under memory pressure.

        The suspend tier sits ahead of :meth:`shed_victims`: running
        studies hold the live memory, so warm-suspending them (trials
        spill their training state and the study re-enqueues once
        pressure clears) relieves pressure without discarding work.
        Lowest priority first, newest first within a band; the
        highest-priority running study is kept so the daemon always makes
        forward progress.
        """
        if not self.overloaded() or len(running) <= 1:
            return []
        order = sorted(
            range(len(running)),
            key=lambda i: (getattr(running[i], "priority", 0), -i),
        )
        return order[:-1]

    def shed_victims(self, queued: Sequence[object]) -> List[int]:
        """Indices of queued studies to shed under memory pressure.

        Sheds from the back of the queue, lowest priority first — the
        work least likely to be missed — and only when the watchdog is
        actually over its ceiling.
        """
        if not self.overloaded() or not queued:
            return []
        order = sorted(
            range(len(queued)),
            key=lambda i: (getattr(queued[i], "priority", 0), -i),
        )
        # Shed everything still queued: none of it can start while the
        # daemon is over its ceiling, and holding it only adds memory.
        return order
