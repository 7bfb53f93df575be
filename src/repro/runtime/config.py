"""Runtime configuration.

One :class:`RuntimeConfig` captures everything ``runcompss`` takes on the
command line in real COMPSs — which cluster to run on, scheduler choice,
tracing/graph flags (paper §5: "both tracing and graph generation create
a performance overhead … easily turned off by a simple flag"), fault
policy, and the simulation knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.runtime.fault import RetryPolicy
from repro.simcluster.costmodel import MNIST_LIKE, DatasetProfile, TrainingCostModel
from repro.simcluster.failures import FailureInjector
from repro.simcluster.machines import ClusterSpec, local_machine
from repro.util.validation import check_non_negative, check_one_of, check_positive


@dataclass
class RuntimeConfig:
    """Configuration for :class:`~repro.runtime.runtime.COMPSsRuntime`.

    Attributes
    ----------
    cluster:
        Cluster to run on.  Defaults to a small local node.
    scheduler:
        ``"fifo"`` / ``"priority"`` / ``"locality"`` or a Scheduler object.
    executor:
        ``"local"`` (real threads or worker processes) or
        ``"simulated"`` (virtual time over the cluster model), or an
        Executor object.
    backend:
        Local executor body backend: ``"threads"`` (in-driver threads)
        or ``"workers"`` (supervised long-lived worker-process pool with
        crash containment, hard-kill deadlines, and poison-task
        quarantine — see
        :class:`~repro.runtime.executor.workers.WorkerPoolExecutor`).
    max_parallel:
        Cap on concurrent bodies for the local executor.
    max_tasks_per_worker:
        ``backend="workers"`` only: recycle each worker process after
        this many completed tasks (bounds leak accumulation in
        long-running studies).  ``None`` disables recycling.
    poison_threshold:
        ``backend="workers"`` only: consecutive worker deaths a single
        task may cause before it is blacklisted with a terminal
        :class:`~repro.runtime.fault.PoisonTaskError`.
    tracing:
        Record Extrae-style traces (Figs. 4–6).
    graph:
        Record dependency-edge labels for DOT export (Fig. 3).
    reserved_cores:
        Cores reserved for the COMPSs master/worker processes: an int
        (applied to the first node, like the paper's "the worker takes
        half of the cores") or a node-name → cores mapping.
    retry_policy:
        Fault-tolerance budgets (and retry backoff schedule).
    failure_injector:
        Optional failure injection (tests/ablations).
    task_timeout_s:
        Per-attempt deadline: an attempt still running after this many
        seconds (wall-clock on the local executor, virtual on the
        simulated one) is killed and treated as a retryable failure.
        ``None`` disables deadlines.
    speculation_multiplier:
        Straggler threshold: a task running past ``multiplier × median``
        of its task name's completed durations gets a speculative backup
        attempt on another node; the first finisher wins.  ``None``
        disables speculation.  A median is trusted after three
        completed attempts of the task name.
    quarantine_threshold:
        Per-node failure-rate threshold in ``(0, 1]`` above which a node
        is quarantined (the scheduler stops placing tasks there).
        ``None`` disables node-health tracking.
    quarantine_window:
        Number of most-recent attempt outcomes per node considered for
        the failure rate.
    quarantine_min_events:
        Minimum outcomes on a node before it can be quarantined.
    quarantine_cooldown_s:
        Quarantine duration; afterwards the node is probed back in.
    max_trial_retries:
        Study-level fail-soft: a FAILED HPO trial is re-asked this many
        times with a fresh task before it counts as lost
        (:class:`~repro.hpo.runner.PyCOMPSsRunner`).
    checkpoint_dir:
        Directory for the crash-consistency layer: a write-ahead journal
        (``journal.jsonl``, one record per task) plus spilled
        task outputs (``outputs/``).  ``None`` (default) disables
        journaling.  Pass the same directory as
        ``COMPSsRuntime(resume_from=...)`` after a crash to resume.
    checkpoint_every:
        Output-spill cadence: ``1`` checkpoints every completed task,
        ``N`` every Nth completion, ``None`` journals completions
        only (resume then knows what completed but re-executes it).
    journal_fsync:
        Journal durability: ``"commit"`` (default) and ``"always"``
        fsync every ``completed``/``failed`` record, so a killed driver
        loses at most the record being written; ``"off"`` hands full
        buffers to the OS without fsync and may lose up to
        ``journal_buffer_records`` completions, which re-execute on
        resume.
    verify_outputs:
        End-to-end data integrity: every data version a task produces is
        checksummed at write time (real pickled bytes on the local
        executors, size+seed-derived digests on the simulated one) and
        verified at every consume point.  A mismatch repairs from a
        surviving replica when one exists, else re-executes the writer
        through the lineage machinery.  Off by default (zero overhead).
    replication_factor:
        Simulated data plane: number of nodes holding a copy of each
        task output (primary + ``replication_factor - 1`` replicas).
        ``1`` (default) keeps only the producing node's copy, so any
        corruption escalates straight to a lineage recompute.
    transfer_retries:
        Cross-node transfer attempts after the first torn/failed one
        (simulated executor).  Retries wait out the retry policy's
        seeded-jitter backoff; exhausting them marks the source node
        unhealthy and falls back to a replica, then to recompute.
    drain_deadline_s:
        Default grace period for ``runtime.drain_node`` (and for
        preemption notices without an explicit lead time): a DRAINING
        node whose running tasks have not finished within this many
        seconds is escalated to ``fail_node`` so lineage recovery takes
        over.  Must be positive.
    starvation_timeout_s:
        Starvation watchdog: when every candidate node of a constraint
        class is dead or draining, its queued tasks are held this many
        seconds awaiting a rejoin, then failed with a terminal
        :class:`~repro.runtime.fault.ResourceStarvationError` instead of
        hanging the study.  Must be positive; ``None`` disables the
        watchdog (starved tasks raise immediately, the pre-churn
        behaviour).
    preempt_checkpoint_epochs:
        Cooperative-preemption cadence: a preemptible trial polls its
        suspension flag every this-many completed epochs (riding the
        ``on_epoch_end`` hook of ``Sequential.fit``).  ``1`` (default)
        reacts within one epoch; larger values poll — and pause-spill —
        less often, trading reaction latency for spill overhead.  Must
        be positive.
    suspend_grace_s:
        How long the service daemon waits for a suspend-flagged study to
        reach a trial boundary and park itself before escalating to a
        hard abandon (the study is still re-queued warm — its journal
        and suspend spills survive — but in-flight epochs past the last
        checkpoint are lost).  Must be positive.
    max_suspended_trials:
        Cap on concurrently suspend-flagged trials runtime-wide; beyond
        it ``PreemptionController.suspend_trial`` refuses (the caller
        falls back to its pre-preemption behaviour, e.g. load shedding
        or lineage recompute).  Must be positive.
    batch_wakes:
        Dispatch batching (simulated executor): buffer clean task
        completions and drain them through *one* scheduling round per
        simulator wake instead of one round per completion event.
        Placements stay byte-identical to the unbatched engine (the
        drain replays completions in event order); features whose side
        bookkeeping is ordered against individual rounds (speculation,
        node health, integrity verification, tracing) automatically fall
        back to the unbatched path.  ``False`` forces a scheduling round
        per completion event everywhere (the reference behaviour).
    stream_completed:
        Streaming mode for very large studies: the task graph frees a
        completed task's edges and bookkeeping once every consumer is
        also done, and the runtime drops its output-future registry
        entries at the same point.  Keeps resident memory bounded by the
        *active* frontier instead of the full study history.  Off by
        default because it trades introspection away: ``graph.tasks()``,
        DOT export, and lineage-based recovery only see live tasks, so
        it is rejected together with ``verify_outputs`` (integrity
        repair re-executes freed writers through the graph).
    journal_buffer_records:
        Write-ahead journal buffering: records are serialised into an
        in-memory buffer flushed to disk every this-many records (and
        always before an fsync-carrying record, and on close).  Bounds
        journal memory while cutting write syscalls ~Nx in the
        ``journal_fsync="off"`` regime large studies use.
    reuse_cache:
        Cross-trial computation reuse for ``cacheable`` stage tasks.
        Inside one study an identical stage is joined at submit (the
        later submitter gets the earlier node's futures, no task is
        created); every computed stage is also published to a
        content-addressed on-disk cache
        (:class:`~repro.runtime.reuse.ReuseCache`) from which later
        studies, other processes and other ``repro serve`` tenants
        resolve it — verified — instead of re-executing.  Off by
        default.
    cache_dir:
        Cache root directory.  ``None`` places it under
        ``<checkpoint_dir>/reuse`` (requires ``checkpoint_dir``); the
        service daemon points every tenant at one shared directory.
    cache_max_bytes:
        Disk ceiling for the reuse cache; exceeding it evicts entries
        LRU-by-atime.  ``None`` (the default) is unbounded.  A key
        failing verification three times is quarantined: the cache
        stops trusting and republishing it, and the stage simply
        recomputes from then on.
    manage_gc:
        Let the runtime manage CPython's *cycle* collector while it is
        active: the accumulated live heap is periodically moved out of
        the collector's scan set (``gc.freeze()``, an O(1) list splice)
        so generational sweeps stop re-scanning the ever-growing task
        history — at 100k tasks the collector was ~30% of total
        dispatch cost (2.5k collections, each walking every live
        invocation).  ``stop()`` returns the frozen set to normal
        management (``gc.unfreeze()``).  Reference-count reclamation is
        unaffected throughout; the only deferral is cyclic garbage
        created *during* the session, which is collected after stop —
        the runtime's own structures are cycle-free by design.
    cost_model:
        Duration model for the simulated executor.
    execute_bodies:
        Simulated executor: also run real task bodies for results.
    duration_fn:
        Simulated executor: override durations entirely.
    default_dataset:
        Dataset profile assumed when a task config names none.
    """

    cluster: ClusterSpec = field(default_factory=lambda: local_machine(4))
    scheduler: Union[str, object] = "fifo"
    executor: Union[str, object] = "local"
    backend: str = "threads"
    max_parallel: Optional[int] = None
    max_tasks_per_worker: Optional[int] = None
    poison_threshold: int = 3
    tracing: bool = True
    graph: bool = True
    reserved_cores: Union[int, Mapping[str, int]] = 0
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    failure_injector: Optional[FailureInjector] = None
    task_timeout_s: Optional[float] = None
    speculation_multiplier: Optional[float] = None
    quarantine_threshold: Optional[float] = None
    quarantine_window: int = 10
    quarantine_min_events: int = 4
    quarantine_cooldown_s: float = 300.0
    max_trial_retries: int = 0
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = 1
    journal_fsync: str = "commit"
    verify_outputs: bool = False
    replication_factor: int = 1
    transfer_retries: int = 2
    drain_deadline_s: float = 120.0
    starvation_timeout_s: Optional[float] = 300.0
    preempt_checkpoint_epochs: int = 1
    suspend_grace_s: float = 30.0
    max_suspended_trials: int = 64
    batch_wakes: bool = True
    stream_completed: bool = False
    journal_buffer_records: int = 256
    reuse_cache: bool = False
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    manage_gc: bool = True
    cost_model: TrainingCostModel = field(default_factory=TrainingCostModel)
    execute_bodies: bool = False
    duration_fn: Optional[object] = None
    default_dataset: Union[DatasetProfile, str] = MNIST_LIKE

    def __post_init__(self) -> None:
        # Knob names are fully qualified so a validation error raised deep
        # inside a service daemon still tells the operator exactly which
        # RuntimeConfig field (and received value) to fix.
        check_one_of("RuntimeConfig.backend", self.backend, ["threads", "workers"])
        check_one_of(
            "RuntimeConfig.journal_fsync", self.journal_fsync,
            ["always", "commit", "off"],
        )
        if self.max_tasks_per_worker is not None:
            check_positive(
                "RuntimeConfig.max_tasks_per_worker", self.max_tasks_per_worker
            )
        check_positive("RuntimeConfig.poison_threshold", self.poison_threshold)
        check_positive(
            "RuntimeConfig.replication_factor", self.replication_factor
        )
        check_non_negative(
            "RuntimeConfig.transfer_retries", self.transfer_retries
        )
        check_positive("RuntimeConfig.drain_deadline_s", self.drain_deadline_s)
        if self.starvation_timeout_s is not None:
            check_positive(
                "RuntimeConfig.starvation_timeout_s", self.starvation_timeout_s
            )
        check_positive(
            "RuntimeConfig.preempt_checkpoint_epochs",
            self.preempt_checkpoint_epochs,
        )
        check_positive("RuntimeConfig.suspend_grace_s", self.suspend_grace_s)
        check_positive(
            "RuntimeConfig.max_suspended_trials", self.max_suspended_trials
        )
        check_non_negative(
            "RuntimeConfig.max_trial_retries", self.max_trial_retries
        )
        if self.checkpoint_every is not None:
            check_positive(
                "RuntimeConfig.checkpoint_every", self.checkpoint_every
            )
        check_positive(
            "RuntimeConfig.journal_buffer_records", self.journal_buffer_records
        )
        if self.cache_max_bytes is not None:
            check_positive(
                "RuntimeConfig.cache_max_bytes", self.cache_max_bytes
            )
        # NOTE: reuse_cache with neither cache_dir nor checkpoint_dir is
        # legal *here* — hosts like the service daemon anchor a default
        # cache_dir after construction.  The runtime raises at start if
        # the cache still has no home (see COMPSsRuntime.__init__).
        if self.stream_completed and self.verify_outputs:
            raise ValueError(
                "RuntimeConfig.stream_completed frees completed tasks from "
                "the graph, which integrity repair "
                "(RuntimeConfig.verify_outputs) needs for lineage "
                "recomputes — enable one or the other"
            )
