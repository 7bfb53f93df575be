"""Simulated-cluster execution in virtual time.

This executor reproduces the paper's supercomputer-scale experiments on a
laptop: the same scheduler and resource pool place tasks on simulated
MareNostrum 4 / POWER9 nodes, a discrete-event engine advances a virtual
clock, and task durations come from the calibrated cost model (or a
user-supplied duration function).

``execute_bodies=True`` additionally runs the real task bodies (instantly
in virtual time) so that HPO results are genuine trained-model metrics
while the *timing* reflects the modelled cluster — the combination used
by the Fig. 7/8 benchmarks.

Resilience (beyond the paper's retry-then-resubmit) is the shared
attempt lifecycle (:mod:`repro.runtime.executor.base`) driven by the
event engine: completions, deadlines (``task_timeout_s``), straggler
checks, backoff waits, drain deadlines and the starvation watchdog are
all simulator events, and node failures, preemption notices and storms
from the failure injector are scheduled onto the same clock.  Chaos
scenarios are therefore bit-deterministic under a fixed seed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.runtime import lineage
from repro.runtime import resilience as rsl
from repro.runtime.executor.base import Attempt, Executor
from repro.runtime.fault import TaskFailedError, TaskTimeoutError
from repro.runtime.resources import DOWN
from repro.runtime.scheduler.base import Assignment, release_assignment
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.simcluster.costmodel import MNIST_LIKE
from repro.simcluster.events import DiscreteEventSimulator, EventHandle
from repro.simcluster.failures import MassLoss, NodeRejoin, PreemptionNotice
from repro.simcluster.node import NodeSpec
from repro.util.logging_utils import get_logger

_log = get_logger("runtime.executor.simulated")

#: duration_fn(task, node_spec, allocation) -> seconds of virtual time.
DurationFn = Callable[[TaskInvocation, NodeSpec, Any], float]


class NodeFailureError(RuntimeError):
    """A task attempt died because its node failed."""


class SimulatedExecutor(Executor):
    """Virtual-time executor over a simulated cluster.

    Parameters
    ----------
    duration_fn:
        Optional override for task durations.  Default: the runtime's
        cost model applied to the task's config argument (the first
        positional argument that is a mapping).
    execute_bodies:
        Run real task bodies for results (costs real CPU, zero virtual
        time beyond the modelled duration).
    default_dataset:
        Dataset profile assumed when a config does not carry one.
    """

    def __init__(
        self,
        duration_fn: Optional[DurationFn] = None,
        execute_bodies: bool = False,
        default_dataset=MNIST_LIKE,
    ):
        super().__init__()
        self.sim = DiscreteEventSimulator()
        self.duration_fn = duration_fn
        self.execute_bodies = execute_bodies
        self.default_dataset = default_dataset
        #: Lazily-resolved default dataset profile (``_staging_time``).
        self._default_profile = None
        #: node -> staging seconds of a task whose config names no
        #: dataset, kept only for a stateless storage model (its answer
        #: depends on size and node alone).
        self._plain_staging: Dict[str, float] = {}
        self._failures_scheduled = False
        #: Buffered completion units — ``(assignment, ready)`` pairs whose
        #: release + scheduling round are deferred into the next batched
        #: engine drain (see :meth:`_drain_pending`).
        self._units: List[tuple] = []
        #: When True, every completion runs its scheduling round inline
        #: (the pre-batching behaviour).  Recomputed per wait_for: any
        #: feature whose bookkeeping is ordered against individual rounds
        #: (speculation, node health, integrity, tracing) forces it, as
        #: does ``config.batch_wakes=False``.
        self._eager_flush = True

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.sim.now

    def clock(self) -> float:
        return self.sim.now

    def _duration(
        self, spec: NodeSpec, alloc, config: Mapping[str, Any]
    ) -> float:
        """Cost-model seconds of one attempt (no ``duration_fn`` set)."""
        assert self.runtime is not None
        return self.runtime.cost_model.duration_for_config(
            config,
            spec,
            cpu_units=alloc.cpu_units,
            gpu_units=alloc.gpu_units,
            default_dataset=self.default_dataset,
        )

    #: Arg types that can never be a config mapping — checked by exact
    #: type before the (comparatively slow) ABC ``isinstance`` below.
    _NON_CONFIG_TYPES = frozenset(
        (int, float, complex, bool, str, bytes, type(None), tuple, list)
    )

    @classmethod
    def _find_config(cls, task: TaskInvocation) -> Mapping[str, Any]:
        non_config = cls._NON_CONFIG_TYPES
        for value in task.args:
            t = type(value)
            if t is dict:
                return value
            if t in non_config:
                continue
            if isinstance(value, Mapping):
                return value
        for value in task.kwargs.values():
            t = type(value)
            if t is dict:
                return value
            if t in non_config:
                continue
            if isinstance(value, Mapping):
                return value
        return {}

    def _staging_time(self, node: str, config: Mapping[str, Any]) -> float:
        """Input staging cost from the cluster storage model (paper §4)."""
        assert self.runtime is not None
        dataset = config.get("dataset", None)
        model = self.runtime.cost_model
        if dataset is None:
            # default_dataset never changes mid-run: resolve it once.
            profile = self._default_profile
            if profile is None:
                profile = (
                    self.default_dataset
                    if not isinstance(self.default_dataset, str)
                    else model._resolve_dataset(self.default_dataset)
                )
                self._default_profile = profile
        else:
            try:
                profile = model._resolve_dataset(dataset)
            except KeyError:
                return 0.0
        storage = self.runtime.cluster.storage
        seconds = storage.staging_time(profile.size_mb, node)
        if dataset is None and storage.stateless:
            self._plain_staging[node] = seconds
        return seconds

    def _prepare_inputs(
        self, task: TaskInvocation, producers: list, node: str, speculative: bool
    ) -> tuple:
        """Verify and transfer ``task``'s predecessors' outputs onto ``node``.

        Inter-task data movement: producers on other nodes ship results
        to consumers (paper §3); the charged size is each producer's
        ``output_size_mb`` hint (0 = free, the default).  With
        ``verify_outputs`` on, every input is checksum-verified first —
        a mismatch repairs from a surviving replica in place, and an
        unrepairable input sends its writer back through the lineage
        machinery.  Cross-node transfers go through the retrying
        transfer path (:meth:`_simulate_transfer`).

        Returns ``(seconds, corrupt_writers)``; a non-empty second item
        means the consumer must NOT start — its writers re-execute.
        Speculative backups skip chaos and verification: they are clean
        re-reads racing an attempt that already passed this gate.
        """
        assert self.runtime is not None
        runtime = self.runtime
        integrity = runtime.integrity
        network = runtime.cluster.network
        total = 0.0
        corrupt: List[TaskInvocation] = []
        for producer in producers:
            if integrity is not None and not speculative:
                versions = runtime.access.versions_written_by(producer)
                if versions:
                    outcome = integrity.verify_writer(
                        producer, versions, consumer_label=task.label
                    )
                    if not outcome.ok:
                        corrupt.append(producer)
                        continue
            size = float(producer.definition.output_size_mb)
            if size <= 0.0 or not producer.node or producer.node == node:
                continue
            if speculative:
                total += network.transfer_time(size, producer.node, node)
                continue
            cost, ok = self._simulate_transfer(task, producer, size, node)
            total += cost
            if not ok:
                corrupt.append(producer)
        return total, corrupt

    def _simulate_transfer(
        self, task: TaskInvocation, producer: TaskInvocation, size: float, node: str
    ) -> tuple:
        """One producer→consumer transfer with retries and fallbacks.

        A torn attempt burns its wire time, waits out the retry policy's
        seeded-jitter backoff, and tries again up to
        ``config.transfer_retries`` times.  Exhausting the budget marks
        the source node unhealthy, then escalates: re-fetch from a
        surviving replica when one exists, else report the producer lost
        (``ok=False`` — the caller re-executes it).  Without the
        integrity layer there is no replica/lineage escalation, so the
        model assumes the source eventually resends (one extra charge).

        Returns ``(seconds, ok)``.
        """
        assert self.runtime is not None
        runtime = self.runtime
        network = runtime.cluster.network
        injector = runtime.failure_injector
        integrity = runtime.integrity
        src = producer.node
        base = network.transfer_time(size, src, node)
        if injector is None:
            return base, True
        base *= injector.link_factor(src, node)
        total = 0.0
        retries = runtime.config.transfer_retries
        for attempt in range(retries + 1):
            if not injector.should_fail_transfer(task.label, producer.label, attempt):
                return total + base, True
            total += base  # the torn attempt still burned the wire time
            if attempt < retries:
                delay = runtime.retry_policy.backoff_delay(
                    f"xfer-{task.label}-{producer.label}", attempt + 1
                )
                total += delay
                if integrity is not None:
                    integrity.transfer_retries += 1
                runtime.resilience.record(
                    self.now, rsl.TRANSFER_RETRY, task.label, src,
                    detail=(
                        f"{producer.label} -> {node} attempt {attempt + 1} "
                        f"torn; retry in {delay:.2f}s"
                    ),
                )
        if integrity is not None:
            integrity.transfer_failures += 1
        runtime.resilience.record(
            self.now, rsl.TRANSFER_FAILED, task.label, src,
            detail=f"{producer.label} -> {node} failed after {retries + 1} attempts",
        )
        runtime.node_health.record_failure(src, kind="transfer")
        if integrity is not None:
            alt = integrity.replica_source(producer, exclude=(src,))
            if alt is not None:
                alt_cost = network.transfer_time(size, alt, node)
                alt_cost *= injector.link_factor(alt, node)
                integrity.replica_repairs += 1
                runtime.resilience.record(
                    self.now, rsl.REPLICA_REPAIR, task.label, alt,
                    detail=f"{producer.label} re-fetched from replica on {alt}",
                )
                return total + alt_cost, True
            return total, False
        return total + base, True

    # ------------------------------------------------------------------
    # Node failures
    # ------------------------------------------------------------------
    def _ensure_node_failures_scheduled(self) -> None:
        if self._failures_scheduled:
            return
        self._failures_scheduled = True
        assert self.runtime is not None
        injector = self.runtime.failure_injector
        if injector is None:
            return
        for nf in injector.node_failures:
            self.sim.schedule_at(
                nf.time,
                lambda nf=nf: self._fail_node(nf.node, nf.destroy_data),
                f"fail-{nf.node}",
            )
            if nf.recovery_time is not None:
                self.sim.schedule_at(
                    nf.recovery_time,
                    lambda nf=nf: self._recover_node(nf.node),
                    f"recover-{nf.node}",
                )
        churn = getattr(injector, "churn", None)
        if churn is None:
            return
        node_names = [spec.name for spec in self.runtime.cluster.nodes]
        for ev in churn.materialize(node_names):
            if isinstance(ev, PreemptionNotice):
                self.sim.schedule_at(
                    ev.time,
                    lambda ev=ev: self._on_preemption_notice(ev),
                    f"preempt-{ev.node}",
                )
                if ev.rejoin_at is not None:
                    self.sim.schedule_at(
                        ev.rejoin_at,
                        lambda ev=ev: self._rejoin_node(ev.node),
                        f"rejoin-{ev.node}",
                    )
            elif isinstance(ev, MassLoss):
                self.sim.schedule_at(
                    ev.time, lambda ev=ev: self._storm(ev), "storm"
                )
                if ev.rejoin_at is not None:
                    for name in ev.nodes:
                        self.sim.schedule_at(
                            ev.rejoin_at,
                            lambda name=name: self._rejoin_node(name),
                            f"rejoin-{name}",
                        )
            elif isinstance(ev, NodeRejoin):
                self.sim.schedule_at(
                    ev.time,
                    lambda ev=ev: self._rejoin_node(ev.node),
                    f"rejoin-{ev.node}",
                )

    def _fail_node(self, node: str, destroy_data: bool = True) -> None:
        assert self.runtime is not None
        # Replay any buffered completion rounds before mutating topology:
        # event-by-event those rounds ran before this failure fired.
        self._drain_pending()
        _log.info("t=%.1f node %s failed", self.now, node)
        drain = self._draining.pop(node, None)
        if drain is not None:
            drain.cancel()  # the failure supersedes the graceful drain
        self.runtime.pool.fail_node(node)
        destroyed: List[str] = []
        if destroy_data:
            # Data versions resident on the lost node die with it: running
            # consumer attempts are aborted (their inputs are gone — the
            # bodies would resolve stale futures at completion time) and
            # the minimal producer lineage re-executes.
            destroyed = lineage.recover_lost_data(self.runtime, node)
        victims = [
            (tid, attempt)
            for tid, attempts in list(self._attempts.items())
            for attempt in list(attempts)
            if any(al.node == node for al in attempt.assignment.all_allocations)
        ]
        for tid, attempt in victims:
            if self._detach(tid, attempt):
                attempt.cancel_events()
                self._attempt_failed(
                    attempt, NodeFailureError(f"node {node} failed"), self.now,
                    lost_node=node,
                )
        self.runtime.resilience.record(
            self.now, rsl.NODE_LOST, "", node,
            detail=(
                f"destroyed {len(destroyed)} data version(s)"
                + (": " + ",".join(destroyed[:8]) if destroyed else "")
                + ("..." if len(destroyed) > 8 else "")
            ),
        )
        # Lineage re-executions (and any aborted consumers whose inputs
        # survived) may be ready right now on the remaining nodes.
        self._dispatch()

    def abort_task(self, task: TaskInvocation) -> bool:
        """Discard in-flight attempts of ``task`` (lineage recovery).

        Simulated bodies run at *completion* time, so an in-flight attempt
        has computed nothing yet: cancelling its events and releasing its
        allocations discards it cleanly.  Returns False when no attempt is
        in flight (e.g. a backoff retry is pending instead).
        """
        assert self.runtime is not None
        attempts = self._attempts.pop(task.task_id, None)
        if not attempts:
            return False
        for attempt in attempts:
            attempt.cancel_events()
            release_assignment(self.runtime.pool, attempt.assignment)
        return True

    def _recover_node(self, node: str) -> None:
        assert self.runtime is not None
        self._drain_pending()
        _log.info("t=%.1f node %s recovered", self.now, node)
        # Through the runtime so recovery and elastic rejoin share one
        # path: slot reset, replica re-seeding, NODE_REJOINED event, and
        # the topology wake that re-probes blocked (even starved) classes.
        self.runtime.recover_node(node)

    # ------------------------------------------------------------------
    # Spot churn: preemption notices, storms, rejoins
    # ------------------------------------------------------------------
    def _on_preemption_notice(self, ev: PreemptionNotice) -> None:
        """A spot node received its eviction warning: drain within the lead."""
        assert self.runtime is not None
        self._drain_pending()
        worker = self.runtime.pool.workers.get(ev.node)
        if worker is None or not worker.available:
            return  # already down or draining — the notice is moot
        self.runtime.resilience.record(
            self.now, rsl.PREEMPTION_NOTICE, "", ev.node,
            detail=f"lead_s={ev.lead_s:g}",
        )
        self.runtime.drain_node(ev.node, deadline_s=ev.lead_s)

    def _storm(self, ev: MassLoss) -> None:
        """Mass loss: k nodes die at once, no warning."""
        assert self.runtime is not None
        pool = self.runtime.pool
        for node in ev.nodes:
            worker = pool.workers.get(node)
            if worker is None or worker.state == DOWN:
                continue
            self._fail_node(node, destroy_data=True)

    def _rejoin_node(self, node: str) -> None:
        assert self.runtime is not None
        self._drain_pending()
        worker = self.runtime.pool.workers.get(node)
        if worker is None or worker.state != DOWN:
            return  # still up, or still draining its last attempts
        self.runtime.recover_node(node)

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain_node(self, node: str, deadline_s: float) -> None:
        self._drain_pending()
        super().drain_node(node, deadline_s)

    def _drain_deadline(self, node: str) -> None:
        """The drain window closed; escalate a busy node to a failure."""
        assert self.runtime is not None
        self._draining.pop(node, None)
        worker = self.runtime.pool.workers.get(node)
        if worker is None or not worker.draining:
            return
        if not self.node_busy(node):
            self.runtime.finish_drain(node)
            return
        running = sum(
            1
            for attempts in self._attempts.values()
            for attempt in attempts
            if any(al.node == node for al in attempt.assignment.all_allocations)
        )
        flagged = self.runtime.preemption.suspended_count()
        self.runtime.resilience.record(
            self.now, rsl.DRAIN_DEADLINE, "", node,
            detail=f"{running} attempt(s) still running; escalating to failure"
            + (f"; {flagged} suspend-flagged trial(s) warm-resumable"
               if flagged else ""),
        )
        self._fail_node(node, destroy_data=True)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def notify_submitted(self, task: TaskInvocation) -> None:
        # Lazy: the event loop runs inside wait_for (virtual time).
        pass

    def _refresh_batching(self) -> None:
        """Recompute whether completions may defer their scheduling rounds.

        Batching buffers clean completions and replays them through one
        engine drain per simulator wake.  The replay is placement-exact
        (see :meth:`DispatchEngine.drain <repro.runtime.dispatch.DispatchEngine.drain>`),
        but features whose *side bookkeeping* observes individual rounds
        — straggler medians, node-health windows, integrity verification
        — keep the classic round-per-event path so their outputs stay
        bit-identical.  Tracing does not: a batched completion records
        its trace interval when it fires, as the unbatched path does.
        """
        assert self.runtime is not None
        runtime = self.runtime
        self._eager_flush = (
            not runtime.config.batch_wakes
            or runtime.straggler is not None
            or runtime.node_health.enabled
            or runtime.integrity is not None
        )

    def _drain_pending(self) -> None:
        """Replay buffered completion units through one batched round.

        No-op when nothing is buffered.  Every event handler that is not
        a clean completion calls this first: event-by-event, the buffered
        rounds ran *before* that handler fired, so replaying them first
        preserves the unbatched ordering exactly.
        """
        units = self._units
        if not units:
            return
        assert self.runtime is not None
        runtime = self.runtime
        self._units = []
        self._check_drains()
        for assignment in runtime.dispatcher.drain(units):
            self._start(assignment)
        self._arm_starvation_watchdog()

    def _dispatch(self) -> None:
        """Incremental scheduling round over the runtime's dispatch engine.

        Newly-ready tasks are folded into the per-constraint-class
        queues; the engine probes only class heads and skips classes
        whose capacity hasn't changed since they last failed to place.
        Also the hook where drains complete (the round follows every
        attempt-ending event) and where the starvation watchdog re-arms.
        """
        assert self.runtime is not None
        runtime = self.runtime
        self._drain_pending()
        self._check_drains()
        runtime.dispatcher.ingest(runtime.graph.pop_ready())
        for assignment in runtime.dispatcher.schedule_round():
            self._start(assignment)
        self._arm_starvation_watchdog()

    def _start(self, assignment: Assignment, speculative: bool = False) -> None:
        assert self.runtime is not None
        runtime = self.runtime
        task = assignment.task
        alloc = assignment.allocation
        node = alloc.node
        node_spec = runtime.pool.workers[node].spec  # not ClusterSpec.node's scan
        # An independent task (the common HPO shape): nothing to verify or move.
        transfer, corrupt = 0.0, ()
        producers = runtime.graph.predecessors(task)
        if producers:
            transfer, corrupt = self._prepare_inputs(
                task, producers, node, speculative
            )
        if corrupt:
            # A corrupt input with no intact copy anywhere: hand the
            # resources back, pull this consumer out of the running set
            # and re-execute the writers through the lineage machinery.
            release_assignment(runtime.pool, assignment)
            lineage.recompute_corrupt(runtime, corrupt, extra_consumers=[task])
            self.sim.schedule(0.0, self._dispatch, label=f"redispatch-{task.label}")
            return
        task.state = TaskState.RUNNING
        if not speculative:
            task.node = node
        config = self._find_config(task)
        staging = None if "dataset" in config else self._plain_staging.get(node)
        if staging is None:
            staging = self._staging_time(node, config)
        staging += transfer
        if self.duration_fn is not None:
            duration = float(self.duration_fn(task, node_spec, alloc))
        else:
            duration = self._duration(node_spec, alloc, config)
        hang = False
        if runtime.failure_injector is not None and not speculative:
            # Straggler injection models node-local slowness: a backup
            # attempt on a different node runs at modelled speed.
            hang, slow = self._injected_delay(task)
            duration *= slow
        start = self.sim.now
        attempt = Attempt(assignment, start, speculative)
        self._attempts.setdefault(task.task_id, []).append(attempt)
        if not hang:
            # args-based dispatch: no per-task closure or f-string label
            # on the hot path (millions of these per large study).
            attempt.handle = self.sim.schedule(
                staging + duration,
                self._complete,
                "complete",
                (task.task_id, attempt),
            )
        timeout = runtime.config.task_timeout_s
        if timeout is not None:
            attempt.timeout_handle = self.sim.schedule(
                float(timeout),
                self._on_timeout,
                "timeout",
                (task.task_id, attempt),
            )
        if not speculative and runtime.straggler is not None:
            self._schedule_spec_check(task.task_id, attempt)

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def _complete(self, task_id: int, attempt: Attempt) -> None:
        assert self.runtime is not None
        runtime = self.runtime
        if not self._detach(task_id, attempt):
            return
        attempt.handle = None  # fired: only a deadline or check is left to cancel
        if attempt.timeout_handle is not None or attempt.spec_check is not None:
            attempt.cancel_events()
        assignment = attempt.assignment
        start = attempt.start
        task = assignment.task
        node = assignment.allocation.node
        if runtime.failure_injector is not None and not attempt.speculative:
            failure = self._injected_failure(task)
            if failure is not None:
                # Failure handling is ordered against scheduling rounds:
                # replay any buffered completions before processing it.
                self._drain_pending()
                self._attempt_failed(attempt, failure, self.now)
                return
        if attempt.speculative or task_id in self._attempts:
            # First finisher wins: cancel any still-racing attempts.
            self._drain_pending()
            self._settle_race(attempt, self.now)
        result: Any = None
        if self.execute_bodies:
            args, kwargs = self.resolve_arguments(task)
            try:
                result = assignment.implementation.func(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - route into fault handling
                self._drain_pending()
                self._attempt_failed(attempt, exc, self.now)
                return
        if self._eager_flush or self._draining:
            self._record(task, assignment, start, self.now, success=True)
            release_assignment(self.runtime.pool, assignment)
            self.runtime.node_health.record_success(node)
            if self.runtime.straggler is not None:
                self.runtime.straggler.observe(
                    task.definition.name, self.now - start
                )
            task.result = result
            task.node = node
            task.start_time, task.end_time = start, self.now
            self.runtime.complete_task(task, result)
            self._schedule_spec_checks_for_name(task.definition.name)
            self._dispatch()
            return
        # Batched fast path: record the completion now, but defer the
        # allocation release and the scheduling round into the next
        # engine drain.  The drain replays units in completion order, so
        # placements — and trace records — are byte-identical to the
        # round-per-event path.
        now = self.sim.now
        if runtime.tracer.enabled:
            self._record(task, assignment, start, now, success=True)
        task.result = result
        task.node = node
        task.start_time, task.end_time = start, now
        runtime.complete_task(task, result)
        self._units.append((assignment, runtime.graph.pop_ready()))

    def _on_timeout(self, task_id: int, attempt: Attempt) -> None:
        """A deadline fired: kill the attempt and treat it as a failure."""
        assert self.runtime is not None
        self._drain_pending()
        if not self._detach(task_id, attempt):
            return
        attempt.cancel_events()
        exc = TaskTimeoutError(
            f"task {attempt.assignment.task.label} exceeded its "
            f"{self.runtime.config.task_timeout_s}s deadline on "
            f"{attempt.assignment.allocation.node}"
        )
        self._attempt_failed(attempt, exc, self.now)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _at(self, when: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        return self.sim.schedule_at(when, self._fire, "at", (fn, args))

    def _fire(self, fn: Callable[..., None], args: tuple) -> None:
        # Event-by-event, the buffered completion rounds ran before this.
        self._drain_pending()
        fn(*args)

    # ------------------------------------------------------------------
    # Synchronisation (virtual time)
    # ------------------------------------------------------------------
    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        self._refresh_batching()
        self._ensure_node_failures_scheduled()
        self._dispatch()

        # Amortised completion tracking: re-scanning every awaited task
        # after every event is O(n²) for n-task studies.  Instead keep the
        # not-yet-finished subset and compact it only after at least
        # len(pending) events have fired — O(1) amortised per event.
        # Failures are captured *during* compaction (not by a final scan
        # of ``tasks``) so completed invocations drop out of this frame
        # and the graph's streaming mode can free them.
        done = TaskState.DONE
        dead = TaskState.FAILED
        failed: List[TaskInvocation] = []
        pending: List[TaskInvocation] = []
        for t in tasks:
            state = t.state
            if state is done:
                continue
            if state is dead:
                failed.append(t)
            else:
                pending.append(t)
        step_batch = self.sim.step_batch
        steps_until_scan = len(pending)
        while pending:
            # Vectorised event core: fire every event at the current
            # timestamp (thousands of homogeneous completions per wake),
            # then run ONE batched drain over the buffered units.
            fired = step_batch()
            if self._units:
                self._drain_pending()
            if not fired:
                stalled = True
            else:
                stalled = False
                steps_until_scan -= fired
            if stalled or steps_until_scan <= 0:
                remaining: List[TaskInvocation] = []
                for t in pending:
                    state = t.state
                    if state is done:
                        continue
                    if state is dead:
                        failed.append(t)
                    else:
                        remaining.append(t)
                pending = remaining
                if stalled:
                    break
                steps_until_scan = max(1, len(pending))
                # Compaction cadence doubles as the GC-relief cadence:
                # freeze the completed-task history out of the cycle
                # collector's scan set (O(1), see runtime.gc_checkpoint).
                self.runtime.gc_checkpoint()
        if failed:
            cause = failed[0].error or RuntimeError("unknown")
            raise TaskFailedError(failed[0], cause) from cause
        if pending:
            stuck = [t.label for t in pending]
            raise RuntimeError(
                f"simulation stalled with tasks unfinished: {stuck[:5]} "
                f"(+{max(0, len(stuck) - 5)} more); "
                "likely an unsatisfiable constraint, all nodes down, or a "
                "hung task with no task_timeout_s deadline configured"
            )

    def shutdown(self) -> None:
        self._units.clear()
        self._cancel_timers()
        self._attempts.clear()
