"""Failure injection for fault-tolerance experiments.

The paper (§3/§4) describes COMPSs' two-level fault tolerance: a failed
task is first retried on the same node; if it fails again it is resubmitted
to a different node; other tasks are unaffected.  To exercise that code we
need controllable failures: a deterministic :class:`FailurePlan` (fail
attempt *k* of task *t*, or kill node *n* at time *T*) and a stochastic
:class:`FailureInjector` (per-attempt failure probability from a seeded
RNG).  Both are consumed by the executors in
:mod:`repro.runtime.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.util.seeding import rng_from
from repro.util.validation import check_in_range, check_non_negative


@dataclass(frozen=True)
class NodeFailure:
    """A node that becomes unavailable at ``time`` (virtual seconds).

    With ``recovery_time`` set, the node rejoins the pool at that time.
    ``destroy_data`` (default True — real node loss takes its memory with
    it) makes the failure also destroy the data versions resident on the
    node, triggering lineage-based recovery; False models a clean drain
    where results were already shipped off.
    """

    node: str
    time: float
    recovery_time: Optional[float] = None
    destroy_data: bool = True

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        if self.recovery_time is not None and self.recovery_time <= self.time:
            raise ValueError(
                f"recovery_time ({self.recovery_time}) must be after "
                f"failure time ({self.time})"
            )


@dataclass
class FailurePlan:
    """A deterministic script of failures.

    Attributes
    ----------
    task_failures:
        Set of ``(task_label, attempt_index)`` pairs that must fail
        (attempts are numbered from 0).  E.g. ``{("experiment-3", 0)}``
        makes task ``experiment-3`` fail on its first try and succeed on
        the retry.
    node_failures:
        Scripted node outages for the simulated executor.
    task_hangs:
        ``(task_label, attempt_index)`` pairs whose attempt never
        completes — exercises the ``task_timeout_s`` deadline path.
    task_slowdowns:
        ``task_label → factor`` duration multipliers (straggler
        injection); speculative backup attempts are NOT slowed, modelling
        node-local slowness.
    output_corruptions:
        ``task_label → scope`` silent bit-flips applied to the task's
        sealed outputs right after it completes.  Scope ``"primary"``
        corrupts the consumer-facing copy only (a replica survives);
        ``"all"`` corrupts every copy, forcing a lineage recompute.
    transfer_failures:
        ``(consumer_label, attempt)`` pairs whose cross-node input
        transfer tears on that attempt (attempts numbered from 0 within
        one staging sequence) — exercises the transfer-retry path.
    link_slowdowns:
        ``(src, dst) → factor`` transfer-time multipliers (degraded
        links); applied on top of the network model.
    cache_corruptions:
        Task labels whose first reuse-cache publication is bit-rotted in
        place (a byte flipped, recorded digest intact) — exercises the
        verified-hit path: the next reader must detect the mismatch and
        recompute, never consume the bad bytes.
    lost_publications:
        Task labels whose first reuse-cache publication is lost — models
        a writer that died after computing but before publishing: no
        entry lands and nothing is left on disk, so readers miss and
        recompute.
    """

    task_failures: Set[Tuple[str, int]] = field(default_factory=set)
    node_failures: List[NodeFailure] = field(default_factory=list)
    task_hangs: Set[Tuple[str, int]] = field(default_factory=set)
    task_slowdowns: Dict[str, float] = field(default_factory=dict)
    output_corruptions: Dict[str, str] = field(default_factory=dict)
    transfer_failures: Set[Tuple[str, int]] = field(default_factory=set)
    link_slowdowns: Dict[Tuple[str, str], float] = field(default_factory=dict)
    cache_corruptions: Set[str] = field(default_factory=set)
    lost_publications: Set[str] = field(default_factory=set)

    def fail_task(self, task_label: str, *attempts: int) -> "FailurePlan":
        """Schedule ``task_label`` to fail on the given attempt numbers."""
        for a in attempts:
            check_non_negative("attempt", a)
            self.task_failures.add((task_label, a))
        return self

    def fail_node(
        self,
        node: str,
        time: float,
        recovery_time: Optional[float] = None,
        destroy_data: bool = True,
    ) -> "FailurePlan":
        """Schedule node ``node`` to fail at virtual ``time``.

        ``destroy_data=False`` models a clean drain (results already
        shipped); the default also destroys resident data versions.
        """
        self.node_failures.append(
            NodeFailure(node, time, recovery_time, destroy_data)
        )
        return self

    def hang_task(self, task_label: str, *attempts: int) -> "FailurePlan":
        """Make the given attempts of ``task_label`` hang forever.

        A hung attempt only terminates through the runtime's deadline
        (``RuntimeConfig.task_timeout_s``), which converts it into a
        retryable failure.
        """
        for a in attempts:
            check_non_negative("attempt", a)
            self.task_hangs.add((task_label, a))
        return self

    def slow_task(self, task_label: str, factor: float) -> "FailurePlan":
        """Multiply ``task_label``'s duration by ``factor`` (straggler)."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.task_slowdowns[task_label] = float(factor)
        return self

    def corrupt_output(
        self, task_label: str, scope: str = "primary"
    ) -> "FailurePlan":
        """Silently corrupt ``task_label``'s output after it completes.

        ``scope="primary"`` leaves replicas intact (repair re-fetches);
        ``scope="all"`` destroys every copy (repair must recompute).
        """
        if scope not in ("primary", "all"):
            raise ValueError(f"scope must be 'primary' or 'all', got {scope!r}")
        self.output_corruptions[task_label] = scope
        return self

    def fail_transfer(self, consumer_label: str, *attempts: int) -> "FailurePlan":
        """Tear ``consumer_label``'s input transfer on the given attempts."""
        for a in attempts:
            check_non_negative("attempt", a)
            self.transfer_failures.add((consumer_label, a))
        return self

    def degrade_link(self, src: str, dst: str, factor: float) -> "FailurePlan":
        """Multiply ``src → dst`` transfer times by ``factor``."""
        if factor <= 0:
            raise ValueError(f"link factor must be > 0, got {factor}")
        self.link_slowdowns[(src, dst)] = float(factor)
        return self

    def corrupt_cache_entry(self, task_label: str) -> "FailurePlan":
        """Bit-rot ``task_label``'s first reuse-cache entry after publish.

        A byte is flipped in place while the entry's header keeps the
        original digest, so the corruption is only discoverable at
        hit-verify time — exactly the bit-rot scenario the verified-hit
        contract exists for.
        """
        self.cache_corruptions.add(task_label)
        return self

    def lose_cache_publish(self, task_label: str) -> "FailurePlan":
        """Drop ``task_label``'s first reuse-cache publication.

        The stage completes but never publishes, as if its writer died
        just before the atomic rename.  Readers miss and recompute.
        """
        self.lost_publications.add(task_label)
        return self

    def should_fail(self, task_label: str, attempt: int) -> bool:
        """Whether this attempt of this task is scripted to fail."""
        return (task_label, attempt) in self.task_failures

    def should_hang(self, task_label: str, attempt: int) -> bool:
        """Whether this attempt of this task is scripted to hang."""
        return (task_label, attempt) in self.task_hangs

    def slow_factor(self, task_label: str) -> float:
        """Duration multiplier for ``task_label`` (1.0 = unaffected)."""
        return self.task_slowdowns.get(task_label, 1.0)

    def corruption_scope(self, task_label: str) -> Optional[str]:
        """Scripted corruption scope for ``task_label`` (None = none)."""
        return self.output_corruptions.get(task_label)

    def should_fail_transfer(self, consumer_label: str, attempt: int) -> bool:
        """Whether this staging attempt of this consumer is scripted to tear."""
        return (consumer_label, attempt) in self.transfer_failures

    def link_factor(self, src: str, dst: str) -> float:
        """Transfer-time multiplier for the ``src → dst`` link (1.0 = ok)."""
        return self.link_slowdowns.get((src, dst), 1.0)

    def cache_corruption(self, task_label: str) -> bool:
        """Whether ``task_label``'s cache entry is scripted to bit-rot."""
        return task_label in self.cache_corruptions

    def publish_lost(self, task_label: str) -> bool:
        """Whether ``task_label``'s publication is scripted to be lost."""
        return task_label in self.lost_publications


@dataclass(frozen=True)
class PreemptionNotice:
    """A spot-style preemption: advance notice at ``time``, loss at
    ``time + lead_s``.

    The simulated executor honours the notice by draining the node
    (finish running tasks, no new placements, spill resident data); at
    the deadline an incomplete drain escalates to a data-destroying node
    failure, a complete one retires the node cleanly.  With ``rejoin_at``
    set the node elastically rejoins at that time.
    """

    node: str
    time: float
    lead_s: float = 60.0
    rejoin_at: Optional[float] = None

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        if self.lead_s <= 0:
            raise ValueError(f"lead_s must be > 0, got {self.lead_s}")
        if self.rejoin_at is not None and self.rejoin_at <= self.time + self.lead_s:
            raise ValueError(
                f"rejoin_at ({self.rejoin_at}) must be after the preemption "
                f"deadline ({self.time + self.lead_s})"
            )


@dataclass(frozen=True)
class MassLoss:
    """A storm: ``k`` nodes lost at once with no notice (data destroyed)."""

    time: float
    nodes: Tuple[str, ...]
    rejoin_at: Optional[float] = None

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        if not self.nodes:
            raise ValueError("a storm must name at least one node")
        if self.rejoin_at is not None and self.rejoin_at <= self.time:
            raise ValueError(
                f"rejoin_at ({self.rejoin_at}) must be after the storm "
                f"({self.time})"
            )


@dataclass(frozen=True)
class NodeRejoin:
    """A node (previously lost or retired) elastically rejoins at ``time``."""

    node: str
    time: float

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)


@dataclass
class ChurnPlan:
    """Cluster churn: scripted preemption notices, storms, and rejoins,
    plus an optional stochastic spot-churn component.

    Scripted events are built with :meth:`notice` / :meth:`storm` /
    :meth:`rejoin`.  The stochastic component (:meth:`stochastic`) models
    sustained spot-market churn: the horizon is cut into windows of
    ``interval_s`` and every node draws once per window — with
    probability ``preempt_prob`` it receives a preemption notice at a
    seeded offset inside the window, with ``lead_s`` of lead time and
    (when ``rejoin_delay_s`` is set) a rejoin that long after the loss.
    Draws are keyed by ``(seed, node, window)`` so the pattern is
    bit-reproducible and independent of execution order.
    """

    notices: List[PreemptionNotice] = field(default_factory=list)
    storms: List[MassLoss] = field(default_factory=list)
    rejoins: List[NodeRejoin] = field(default_factory=list)
    preempt_prob: float = 0.0
    interval_s: float = 300.0
    horizon_s: float = 0.0
    lead_s: float = 60.0
    rejoin_delay_s: Optional[float] = None
    seed: int = 0

    def notice(
        self,
        node: str,
        time: float,
        lead_s: float = 60.0,
        rejoin_at: Optional[float] = None,
    ) -> "ChurnPlan":
        """Schedule a preemption notice for ``node`` at ``time``."""
        self.notices.append(PreemptionNotice(node, time, lead_s, rejoin_at))
        return self

    def storm(
        self, time: float, *nodes: str, rejoin_at: Optional[float] = None
    ) -> "ChurnPlan":
        """Schedule a mass loss of ``nodes`` at ``time`` (no notice)."""
        self.storms.append(MassLoss(time, tuple(nodes), rejoin_at))
        return self

    def rejoin(self, node: str, time: float) -> "ChurnPlan":
        """Schedule ``node`` to elastically rejoin at ``time``."""
        self.rejoins.append(NodeRejoin(node, time))
        return self

    def stochastic(
        self,
        preempt_prob: float,
        interval_s: float,
        horizon_s: float,
        lead_s: float = 60.0,
        rejoin_delay_s: Optional[float] = None,
        seed: int = 0,
    ) -> "ChurnPlan":
        """Enable the seeded stochastic spot-churn component."""
        check_in_range("preempt_prob", preempt_prob, 0.0, 1.0)
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        check_non_negative("horizon_s", horizon_s)
        if lead_s <= 0:
            raise ValueError(f"lead_s must be > 0, got {lead_s}")
        if rejoin_delay_s is not None and rejoin_delay_s <= 0:
            raise ValueError(
                f"rejoin_delay_s must be > 0, got {rejoin_delay_s}"
            )
        self.preempt_prob = preempt_prob
        self.interval_s = float(interval_s)
        self.horizon_s = float(horizon_s)
        self.lead_s = float(lead_s)
        self.rejoin_delay_s = rejoin_delay_s
        self.seed = seed
        return self

    def materialize(self, node_names: List[str]) -> List[object]:
        """Scripted plus stochastically-drawn events, deterministically.

        The stochastic draws are pure functions of ``(seed, node,
        window)``, so the same plan over the same node set always yields
        the same event list regardless of when or how often this is
        called.
        """
        events: List[object] = list(self.notices) + list(self.storms)
        events += list(self.rejoins)
        if self.preempt_prob > 0.0 and self.horizon_s > 0.0:
            windows = int(self.horizon_s // self.interval_s)
            for node in sorted(node_names):
                for k in range(windows):
                    rng = rng_from(self.seed, f"churn/{node}/{k}")
                    if rng.random() >= self.preempt_prob:
                        continue
                    t = k * self.interval_s + rng.random() * (
                        self.interval_s - self.lead_s
                        if self.interval_s > self.lead_s
                        else self.interval_s
                    )
                    rejoin_at = None
                    if self.rejoin_delay_s is not None:
                        rejoin_at = t + self.lead_s + self.rejoin_delay_s
                    events.append(
                        PreemptionNotice(node, t, self.lead_s, rejoin_at)
                    )
        # Deterministic order: by time, then a stable type/node key.
        def _key(e: object):
            if isinstance(e, MassLoss):
                return (e.time, 0, ",".join(e.nodes))
            if isinstance(e, PreemptionNotice):
                return (e.time, 1, e.node)
            return (e.time, 2, e.node)

        return sorted(events, key=_key)


class FailureInjector:
    """Combines a deterministic plan with optional random task failures.

    Parameters
    ----------
    plan:
        Scripted failures (always honoured).
    task_failure_prob:
        Additional i.i.d. probability that any attempt fails.
    output_corrupt_prob:
        I.i.d. probability that a completed task's sealed output is
        silently bit-flipped (primary copy only — replicas survive, so
        repair paths stay reachable).  Each completion of a label draws
        afresh, so a recomputed writer is not doomed to re-corrupt.
    transfer_failure_prob:
        I.i.d. probability that one cross-node staging attempt tears.
        Each attempt (including retries and re-stagings) draws afresh.
    cache_corrupt_prob:
        I.i.d. probability that one reuse-cache publication is bit-rotted
        in place right after landing (recorded digest intact).  Each
        publication of a label draws afresh, so a republished entry is
        not doomed to re-corrupt.
    seed:
        Seed for the random component; identical seeds reproduce the
        exact same failure pattern (attempts are counted, not timed, so
        reproduction is independent of execution order jitter).
    churn:
        Optional :class:`ChurnPlan` — preemption notices, storms, and
        elastic rejoins consumed by the simulated executor.
    """

    def __init__(
        self,
        plan: Optional[FailurePlan] = None,
        task_failure_prob: float = 0.0,
        seed: int = 0,
        output_corrupt_prob: float = 0.0,
        transfer_failure_prob: float = 0.0,
        churn: Optional[ChurnPlan] = None,
        cache_corrupt_prob: float = 0.0,
    ) -> None:
        check_in_range("task_failure_prob", task_failure_prob, 0.0, 1.0)
        check_in_range("output_corrupt_prob", output_corrupt_prob, 0.0, 1.0)
        check_in_range("transfer_failure_prob", transfer_failure_prob, 0.0, 1.0)
        check_in_range("cache_corrupt_prob", cache_corrupt_prob, 0.0, 1.0)
        self.plan = plan or FailurePlan()
        self.churn = churn
        self.task_failure_prob = task_failure_prob
        self.output_corrupt_prob = output_corrupt_prob
        self.transfer_failure_prob = transfer_failure_prob
        self.cache_corrupt_prob = cache_corrupt_prob
        self._seed = seed
        self._draws: Dict[Tuple[str, int], bool] = {}
        #: Per-label completion counter: the n-th completion of a label
        #: gets its own corruption draw (a recompute redraws).
        self._seal_counts: Dict[str, int] = {}
        #: Per-(consumer, producer) staging-attempt counter: every torn
        #: transfer retry and every re-staging redraws.
        self._transfer_counts: Dict[Tuple[str, str], int] = {}
        #: Scripted transfer tears fire once each (staging attempts are
        #: numbered within a sequence, which restarts after a recompute).
        self._transfer_script_used: Set[Tuple[str, int]] = set()
        #: Per-label reuse-publication counter: the n-th publication of a
        #: label gets its own corruption draw (a republish redraws).
        self._cache_pub_counts: Dict[str, int] = {}
        #: Scripted lost publications fire on the first publication only
        #: (the recompute that follows must be allowed to land).
        self._lost_publications_used: Set[str] = set()
        self.injected_failures: List[Tuple[str, int]] = []
        self.injected_hangs: List[Tuple[str, int]] = []
        self.injected_corruptions: List[str] = []
        self.injected_transfer_failures: List[Tuple[str, str]] = []
        self.injected_cache_corruptions: List[str] = []
        self.injected_lost_publications: List[str] = []

    def should_fail(self, task_label: str, attempt: int) -> bool:
        """Decide (deterministically per (task, attempt)) whether to fail.

        The random draw for a ``(task_label, attempt)`` pair is derived
        from the seed and the pair itself (and cached), so the verdict is
        independent of the order in which attempts are asked about —
        executor scheduling jitter cannot change which tasks fail.
        """
        check_non_negative("attempt", attempt)
        if self.plan.should_fail(task_label, attempt):
            self._record(task_label, attempt)
            return True
        if self.task_failure_prob <= 0.0:
            return False
        key = (task_label, attempt)
        if key not in self._draws:
            rng = rng_from(self._seed, f"failure-injector/{task_label}/{attempt}")
            self._draws[key] = bool(rng.random() < self.task_failure_prob)
        if self._draws[key]:
            self._record(task_label, attempt)
        return self._draws[key]

    def _record(self, task_label: str, attempt: int) -> None:
        self.injected_failures.append((task_label, attempt))

    def should_hang(self, task_label: str, attempt: int) -> bool:
        """Whether this attempt is scripted to hang (never complete)."""
        check_non_negative("attempt", attempt)
        if self.plan.should_hang(task_label, attempt):
            self.injected_hangs.append((task_label, attempt))
            return True
        return False

    def slow_factor(self, task_label: str) -> float:
        """Scripted duration multiplier for ``task_label`` (1.0 = none)."""
        return self.plan.slow_factor(task_label)

    def corruption_scope(self, task_label: str) -> Optional[str]:
        """Corruption decision for one *completion* of ``task_label``.

        Returns ``"primary"`` / ``"all"`` / ``None``.  A scripted
        corruption fires on the label's first completion only, so an
        ``"all"``-scope corruption (which forces a recompute) converges
        once the writer re-executes.  The random component draws per
        completion — the n-th completion of a label has its own seeded
        verdict — so a recomputed writer can come back clean.
        """
        n = self._seal_counts.get(task_label, 0)
        self._seal_counts[task_label] = n + 1
        scripted = self.plan.corruption_scope(task_label)
        if scripted is not None and n == 0:
            # Scripted corruption hits the first completion only; the
            # recomputed output comes back clean (otherwise "all"-scope
            # corruption could never converge).
            self.injected_corruptions.append(task_label)
            return scripted
        if self.output_corrupt_prob <= 0.0:
            return None
        rng = rng_from(self._seed, f"corrupt-injector/{task_label}/{n}")
        if rng.random() < self.output_corrupt_prob:
            self.injected_corruptions.append(task_label)
            return "primary"
        return None

    def should_fail_transfer(
        self, consumer_label: str, producer_label: str, attempt: int
    ) -> bool:
        """Whether this staging attempt tears (scripted or random).

        ``attempt`` is the index within the current staging sequence
        (scripted tears consume one ``(consumer, attempt)`` pair each);
        the random component keys on a monotonic per-(consumer, producer)
        counter so every retry and every re-staging draws afresh.
        """
        check_non_negative("attempt", attempt)
        key = (consumer_label, attempt)
        if self.plan.should_fail_transfer(consumer_label, attempt) and (
            key not in self._transfer_script_used
        ):
            self._transfer_script_used.add(key)
            self.injected_transfer_failures.append((consumer_label, producer_label))
            return True
        if self.transfer_failure_prob <= 0.0:
            return False
        pair = (consumer_label, producer_label)
        n = self._transfer_counts.get(pair, 0)
        self._transfer_counts[pair] = n + 1
        rng = rng_from(
            self._seed,
            f"transfer-injector/{consumer_label}/{producer_label}/{n}",
        )
        if rng.random() < self.transfer_failure_prob:
            self.injected_transfer_failures.append((consumer_label, producer_label))
            return True
        return False

    def cache_corrupts(self, task_label: str) -> bool:
        """Whether this reuse-cache publication of ``task_label`` bit-rots.

        A scripted corruption fires on the label's first publication
        only (the recompute's republish lands clean, so the study
        converges).  The random component draws per publication with a
        seeded, order-independent verdict.
        """
        n = self._cache_pub_counts.get(task_label, 0)
        self._cache_pub_counts[task_label] = n + 1
        if self.plan.cache_corruption(task_label) and n == 0:
            self.injected_cache_corruptions.append(task_label)
            return True
        if self.cache_corrupt_prob <= 0.0:
            return False
        rng = rng_from(self._seed, f"cache-corrupt-injector/{task_label}/{n}")
        if rng.random() < self.cache_corrupt_prob:
            self.injected_cache_corruptions.append(task_label)
            return True
        return False

    def cache_publish_lost(self, task_label: str) -> bool:
        """Whether this publication of ``task_label`` is lost.

        Scripted only, first publication only: the stage's recompute
        must be allowed to land.
        """
        if (
            self.plan.publish_lost(task_label)
            and task_label not in self._lost_publications_used
        ):
            self._lost_publications_used.add(task_label)
            self.injected_lost_publications.append(task_label)
            return True
        return False

    def link_factor(self, src: str, dst: str) -> float:
        """Scripted transfer-time multiplier for the link (1.0 = none)."""
        return self.plan.link_factor(src, dst)

    @property
    def node_failures(self) -> List[NodeFailure]:
        """Scripted node outages (from the plan)."""
        return list(self.plan.node_failures)

    def reset(self) -> None:
        """Forget cached draws and history (draws re-derive identically)."""
        self._draws.clear()
        self._seal_counts.clear()
        self._transfer_counts.clear()
        self._transfer_script_used.clear()
        self._cache_pub_counts.clear()
        self._lost_publications_used.clear()
        self.injected_failures.clear()
        self.injected_hangs.clear()
        self.injected_corruptions.clear()
        self.injected_transfer_failures.clear()
        self.injected_cache_corruptions.clear()
        self.injected_lost_publications.clear()
