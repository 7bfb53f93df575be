"""Runtime configuration.

One :class:`RuntimeConfig` captures everything ``runcompss`` takes on the
command line in real COMPSs — which cluster to run on, scheduler choice,
tracing/graph flags (paper §5: "both tracing and graph generation create
a performance overhead … easily turned off by a simple flag"), fault
policy, and the simulation knobs.  Each knob is declared once, with its
range and its ``repro run`` / ``repro serve`` flag (:mod:`repro.util.knobs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.runtime.fault import RetryPolicy
from repro.runtime.scheduler import SCHEDULERS
from repro.simcluster.costmodel import MNIST_LIKE, DatasetProfile, TrainingCostModel
from repro.simcluster.failures import FailureInjector
from repro.simcluster.machines import ClusterSpec, local_machine
from repro.util.knobs import knob, validate
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    one_of,
)


@dataclass
class RuntimeConfig:
    """Configuration for :class:`~repro.runtime.runtime.COMPSsRuntime`.

    Attributes
    ----------
    cluster:
        Cluster to run on.  Defaults to a small local node.
    scheduler:
        A name in ``repro.runtime.scheduler.SCHEDULERS`` or a Scheduler.
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
        Record dependency-edge labels and ``compss_wait_on`` sync points
        for DOT export (Fig. 3).
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
        Per-node failure-rate threshold above which a node
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
        task outputs (``outputs/``).  ``None`` disables journaling.  Pass
        the same directory as ``COMPSsRuntime(resume_from=...)`` after a
        crash to resume.
    checkpoint_every:
        Output-spill cadence: ``1`` checkpoints every completed task,
        ``N`` every Nth completion, ``None`` journals completions
        only (resume then knows what completed but re-executes it).
    journal_fsync:
        Journal durability: ``"commit"`` and ``"always"`` fsync every
        ``completed``/``failed`` record, so a killed driver loses at
        most the record being written; ``"off"`` hands full
        buffers to the OS without fsync and may lose up to
        ``journal_buffer_records`` completions, which re-execute on
        resume.
    verify_outputs:
        End-to-end data integrity: every data version a task produces is
        checksummed at write time (real pickled bytes on the local
        executors, size+seed-derived digests on the simulated one) and
        verified at every consume point.  A mismatch repairs from a
        surviving replica when one exists, else re-executes the writer
        through the lineage machinery.  Zero overhead when off.
    replication_factor:
        Simulated data plane: number of nodes holding a copy of each
        task output (primary + ``replication_factor - 1`` replicas).
        ``1`` keeps only the producing node's copy, so any
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
        over.
    starvation_timeout_s:
        Starvation watchdog: when every candidate node of a constraint
        class is dead or draining, its queued tasks are held this many
        seconds awaiting a rejoin, then failed with a terminal
        :class:`~repro.runtime.fault.ResourceStarvationError` instead of
        hanging the study.  ``None`` disables the
        watchdog: starved tasks are held until a candidate node rejoins,
        however long that takes, and never fail for starvation.
    preempt_checkpoint_epochs:
        Cooperative-preemption cadence: a preemptible trial polls its
        suspension flag every this-many completed epochs (riding the
        ``on_epoch_end`` hook of ``Sequential.fit``).  ``1``
        reacts within one epoch; larger values poll — and pause-spill —
        less often, trading reaction latency for spill overhead.
    suspend_grace_s:
        How long the service daemon waits for a suspend-flagged study to
        reach a trial boundary and park itself before escalating to a
        hard abandon (the study is still re-queued warm — its journal
        and suspend spills survive — but in-flight epochs past the last
        checkpoint are lost).
    max_suspended_trials:
        Cap on concurrently suspend-flagged trials runtime-wide; beyond
        it ``PreemptionController.suspend_trial`` refuses (the caller
        falls back to its pre-preemption behaviour, e.g. load shedding
        or lineage recompute).
    batch_wakes:
        Dispatch batching (simulated executor): buffer clean task
        completions and drain them through *one* scheduling round per
        simulator wake instead of one round per completion event.
        Placements stay byte-identical to the unbatched engine (the
        drain replays completions in event order); features whose side
        bookkeeping is ordered against individual rounds (speculation,
        node health, integrity verification) automatically fall back to
        the unbatched path.  Tracing stays batched: its records are
        identical either way.  ``False`` forces a scheduling round
        per completion event everywhere (the reference behaviour).
        It stays an option only while it is the reference engine of
        the tests that hold the batched engine to it:
        ``tests/test_dispatch_batching.py``'s
        ``test_placements_byte_identical``,
        ``test_hand_off_keeps_batched_runs_identical`` and
        ``test_wait_survives_a_drain_that_loses_a_producer``.
    stream_completed:
        Streaming mode for very large studies: the task graph frees a
        completed task's edges and bookkeeping once every consumer is
        also done, and the runtime drops its output-future registry
        entries at the same point.  Keeps resident memory bounded by the
        *active* frontier instead of the full study history, provided
        ``tracing`` is off too: the tracer keeps one record per task
        attempt (measured over a 5,000-task wave on CPython 3.11: 21,131
        objects, 296 B per task).  Off by default because it trades
        introspection away: ``graph.tasks()``, DOT export, and
        lineage-based recovery only see live tasks, so it is rejected
        together with ``verify_outputs`` (integrity repair re-executes
        freed writers through the graph).  It is one of two policies on
        the graph's count of unfinished consumers: without it, a reuse
        cache releases consumed stage values instead (``reuse_cache``).
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
        resolve it — verified — instead of re-executing.  The cache is
        then the store of record for consumed stage states: once every
        consumer of a value this runtime published is DONE, the driver
        drops it and its futures read it back, verified, on demand
        (``compss_wait_on``, a sibling joining the node, a re-run
        consumer, a drain spill); a value whose entry is gone is
        recomputed through lineage.  ``reuse.stats()`` counts these as
        ``released`` / ``reloaded``, apart from hits and misses.  Not
        with ``stream_completed`` (which frees whole tasks) or
        ``verify_outputs``.
    cache_dir:
        Cache root directory.  ``None`` places it under
        ``<checkpoint_dir>/reuse`` (requires ``checkpoint_dir``); the
        service daemon points every tenant at one shared directory.
    cache_max_bytes:
        Disk ceiling for the reuse cache; exceeding it evicts entries
        LRU-by-atime.  ``None`` is unbounded.  A key
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

    cluster: ClusterSpec = knob(factory=lambda: local_machine(4))
    scheduler: Union[str, object] = knob(
        "fifo", choices=list(SCHEDULERS), flag="--scheduler"
    )
    executor: Union[str, object] = knob(
        "local", choices=["local", "simulated"], flag="--executor"
    )
    backend: str = knob(
        "threads", one_of("threads", "workers"), flag="--backend",
        help="local-executor body backend; 'workers' is the supervised "
        "worker-process pool (crash containment, hard-kill deadlines, "
        "poison-task quarantine)",
    )
    max_parallel: Optional[int] = knob(None, check_positive)
    max_tasks_per_worker: Optional[int] = knob(
        None, check_positive, flag="--max-tasks-per-worker",
        help="recycle each worker process after this many completed tasks "
        "(--backend workers)",
    )
    poison_threshold: int = knob(
        3, check_positive, flag="--poison-threshold",
        help="consecutive worker deaths before a task is blacklisted as "
        "poison (--backend workers)",
    )
    tracing: bool = knob(
        True, flag="--no-tracing",
        help="disable tracing (the paper's traces-off flag)",
    )
    graph: bool = knob(
        True, flag="--no-graph", help="disable graph label recording"
    )
    reserved_cores: Union[int, Mapping[str, int]] = knob(
        0, flag="--reserved-cores",
        help="cores kept for the COMPSs worker on node 1",
    )
    retry_policy: RetryPolicy = knob(factory=RetryPolicy)
    failure_injector: Optional[FailureInjector] = knob(None)
    task_timeout_s: Optional[float] = knob(
        None, check_positive, flag="--task-timeout",
        help="per-attempt deadline in seconds; on --backend workers a "
        "hung body is hard-killed at the deadline",
    )
    speculation_multiplier: Optional[float] = knob(None, check_positive)
    quarantine_threshold: Optional[float] = knob(None, check_fraction)
    quarantine_window: int = knob(10, check_positive)
    quarantine_min_events: int = knob(4, check_positive)
    quarantine_cooldown_s: float = knob(300.0, check_positive)
    max_trial_retries: int = knob(0, check_non_negative)
    checkpoint_dir: Optional[str] = knob(
        None, flag="--checkpoint-dir",
        help="enable crash-consistent journaling into this directory "
        "(journal.jsonl + spilled task outputs)",
    )
    checkpoint_every: Optional[int] = knob(
        1, check_positive, flag="--checkpoint-every", off=0,
        help="spill every Nth completed task's output "
        "(0 = journal only, no spills)",
    )
    journal_fsync: str = knob("commit", one_of("always", "commit", "off"))
    verify_outputs: bool = knob(
        False, flag="--verify-outputs",
        help="checksum every task output at write time and verify it at "
        "every consume point; corruption repairs from a replica or "
        "re-executes the writer",
    )
    replication_factor: int = knob(
        1, check_positive, flag="--replication-factor",
        help="simulated data plane: copies of each task output "
        "(primary + N-1 replicas)",
    )
    transfer_retries: int = knob(
        2, check_non_negative, flag="--transfer-retries",
        help="cross-node transfer retries before falling back to a "
        "replica / recompute (simulated executor)",
    )
    drain_deadline_s: float = knob(
        120.0, check_positive, flag="--drain-deadline",
        help="graceful-drain window in seconds: a draining node that still "
        "has running tasks at the deadline escalates to a node failure "
        "(lineage recovery)",
    )
    starvation_timeout_s: Optional[float] = knob(
        300.0, check_positive, flag="--starvation-timeout", off=0,
        help="seconds a task whose constraint no live node can satisfy "
        "waits for a rejoin before failing with ResourceStarvationError; "
        "0 disables the watchdog (tasks wait forever)",
    )
    preempt_checkpoint_epochs: int = knob(
        1, check_positive, flag="--preempt-checkpoint-epochs",
        help="checkpoint-epoch cadence: preemptible trials poll their "
        "suspension flag every Nth epoch end (requires --checkpoint-dir "
        "for the spill target)",
    )
    suspend_grace_s: float = knob(
        30.0, check_positive, flag="--suspend-grace",
        help="seconds a suspend-flagged trial gets to spill warm before "
        "its tasks are abandoned (the spill still warm-resumes whatever "
        "landed)",
    )
    max_suspended_trials: int = knob(
        64, check_positive, flag="--max-suspended-trials",
        help="ceiling on concurrently suspended trials; suspend requests "
        "past it are refused so a flapping watchdog cannot park an "
        "entire study",
    )
    batch_wakes: bool = knob(True)
    stream_completed: bool = knob(False)
    journal_buffer_records: int = knob(256, check_positive)
    reuse_cache: bool = knob(
        False, flag="--reuse-cache",
        help="share cacheable stages: identical stages of a study are "
        "joined into one task at submit, and every stage output is "
        "published to a verified content-addressed disk cache that later "
        "runs, other processes and other tenants hit (pairs with "
        "--stage-epochs)",
    )
    cache_dir: Optional[str] = knob(
        None, flag="--cache-dir",
        help="reuse-cache directory (default: <checkpoint-dir>/reuse)",
    )
    cache_max_bytes: Optional[int] = knob(
        None, check_positive, flag="--cache-max-bytes",
        help="reuse-cache size ceiling; least-recently-hit entries are "
        "evicted past it",
        why="a deployment's disk budget; tests evict through "
        "ReuseCache(max_bytes=...) directly",
    )
    manage_gc: bool = knob(True)
    cost_model: TrainingCostModel = knob(factory=TrainingCostModel)
    execute_bodies: bool = knob(False)
    duration_fn: Optional[object] = knob(None)
    default_dataset: Union[DatasetProfile, str] = knob(MNIST_LIKE)

    def __post_init__(self) -> None:
        validate(self)
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
