"""The PyCOMPSs-backed HPO runner — the paper's core scheme (§4).

Structure (paper Fig. 2): the *application* receives a search space (from
the Listing-1 JSON), generates *configs* with the selected algorithm, and
launches one ``experiment`` task per config; ``compss_wait_on``
synchronises the results, optional ``visualisation`` tasks post-process
each result and a final ``plot`` task combines them (the task graph of
Fig. 3).  The runtime distributes tasks over however many nodes the job
was given — "no code changes are required to run across multiple nodes".
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.hpo.algorithms import SearchAlgorithm, get_algorithm
from repro.hpo.early_stopping import StudyStopper
from repro.hpo.space import SearchSpace
from repro.hpo.stages import STAGE_BODIES, StagePlan, split_config, stage_prepare
from repro.hpo.trial import Study, Trial, TrialResult, TrialStatus
from repro.hpo.objective import train_experiment
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import StudyAbandonedError, TaskFailedError
from repro.runtime.preemption import (
    PREEMPT_CONFIG_KEY,
    SUSPENDED_PAYLOAD_KEY,
    PreemptContext,
)
from repro.runtime.runtime import COMPSsRuntime, current_runtime
from repro.runtime.task_definition import TaskDefinition
from repro.util.logging_utils import get_logger
from repro.util.timing import Stopwatch

_log = get_logger("hpo.runner")

Objective = Callable[[Mapping[str, Any]], Mapping[str, Any]]


class StudyCallback:
    """Observer hooks for a running study (the live-dashboard seam).

    The paper lists "visualisation dashboards" among the must-have HPO
    tool features (§1); a callback receives every trial transition so a
    dashboard (or logger, or notifier) can track the study in real time.
    All hooks default to no-ops.
    """

    def on_study_begin(self, study: Study) -> None:
        """Called once before the first trial is launched."""

    def on_trial_start(self, study: Study, trial: Trial) -> None:
        """Called when a trial's experiment task is submitted."""

    def on_trial_suspended(self, study: Study, trial: Trial) -> None:
        """Called when a trial suspends warm (before it is resubmitted)."""

    def on_trial_complete(self, study: Study, trial: Trial) -> None:
        """Called after a trial resolves (COMPLETED or FAILED)."""

    def on_study_end(self, study: Study) -> None:
        """Called once after the study finishes (or stops early)."""


class ProgressPrinter(StudyCallback):
    """Minimal textual dashboard: one line per finished trial."""

    def __init__(self, stream=None):
        import sys

        self.stream = stream or sys.stdout

    def on_trial_complete(self, study: Study, trial: Trial) -> None:
        done = len(study.completed())
        if trial.status.value == "completed":
            line = (
                f"[{done:>3}] trial {trial.trial_id}: "
                f"val_acc={trial.val_accuracy:.3f} {trial.describe_config()}"
            )
        else:
            line = f"[{done:>3}] trial {trial.trial_id}: {trial.status.value}"
        print(line, file=self.stream)


def summarise_result(result: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``visualisation`` task body: per-experiment summary (Fig. 3).

    "For immediate and interactive action, the performance measure
    returned can be visualised using another task" (§4).
    """
    history = result.get("history", {})
    accs = history.get("val_accuracy", [])
    return {
        "val_accuracy": float(result["val_accuracy"]),
        "best_epoch": int(max(range(len(accs)), key=accs.__getitem__)) if accs else 0,
        "epochs_run": int(result.get("epochs_run", len(accs))),
    }


def combine_plots(summaries: Sequence[Mapping[str, Any]]) -> str:
    """The final ``plot`` task body: one line per experiment (Fig. 3).

    "When all tasks are completed, we plot the graphs showing the
    performance of each experiment" (§4).
    """
    lines = [
        f"experiment {i + 1}: val_acc={s['val_accuracy']:.3f} "
        f"(best epoch {s['best_epoch']}, {s['epochs_run']} epochs)"
        for i, s in enumerate(summaries)
    ]
    return "\n".join(lines)


class PyCOMPSsRunner:
    """Run an HPO study as PyCOMPSs tasks.

    Parameters
    ----------
    algorithm:
        A :class:`SearchAlgorithm`, or an algorithm name combined with
        ``space`` (and algorithm kwargs via ``algorithm_kwargs``).
    space:
        Search space (required when ``algorithm`` is a name).
    objective:
        The experiment body; defaults to real training
        (:func:`~repro.hpo.objective.train_experiment`).  Must be
        picklable for the process backend.
    constraint:
        Resources per experiment task — the paper's ``@constraint``
        (e.g. 1 CPU; or 48 CPUs; or 1 GPU + N CPUs).
    runtime_config:
        Runtime to start if none is active.  When a runtime is already
        active it is reused and left running.
    stoppers:
        Study-level early stopping (paper §6.1).
    batch_size:
        Max configs per ask/submit round (None = whole schedule at once,
        the paper's grid-search behaviour; set to the cluster parallelism
        for adaptive algorithms).
    visualize:
        Add per-experiment ``visualisation`` tasks and a final ``plot``
        task, reproducing the Fig. 3 graph shape.
    study_name:
        Name recorded on the study.
    callbacks:
        :class:`StudyCallback` observers notified of trial transitions
        (e.g. :class:`ProgressPrinter` for a live textual dashboard).
    resume_from:
        Checkpoint directory (or ``journal.jsonl``) of a crashed run.
        Only honoured when this runner starts its own runtime: the
        journal is replayed and experiment tasks whose outputs were
        checkpointed resolve instantly instead of re-training.  Compose
        with a ``study.json`` warm start
        (:func:`repro.hpo.persistence.compose_resume`) to also skip
        fully-recorded trials.
    stage_plan:
        Decompose each trial into a *prepare → train block → final*
        chain of ``cacheable`` stage tasks (see :mod:`repro.hpo.stages`)
        instead of one monolithic ``experiment`` task.  With the
        runtime's reuse cache on, trials sharing a hyperparameter prefix
        share one task per common block (joined at submit; other studies
        and processes resolve them from the disk cache).  Staged trials are
        not preemptible and ignore ``target_accuracy``; the configured
        ``objective`` is superseded by the plan's staged bodies.
    """

    def __init__(
        self,
        algorithm: Union[str, SearchAlgorithm],
        space: Optional[SearchSpace] = None,
        objective: Objective = train_experiment,
        constraint: Optional[ResourceConstraint] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        stoppers: Optional[Sequence[StudyStopper]] = None,
        batch_size: Optional[int] = None,
        visualize: bool = False,
        study_name: str = "hpo-study",
        algorithm_kwargs: Optional[Dict[str, Any]] = None,
        callbacks: Optional[Sequence[StudyCallback]] = None,
        resume_from: Optional[str] = None,
        max_trial_retries: Optional[int] = None,
        stage_plan: Optional[StagePlan] = None,
    ):
        self.algorithm = get_algorithm(
            algorithm, space, **(algorithm_kwargs or {})
        ) if isinstance(algorithm, str) else algorithm
        self.objective = objective
        self.constraint = constraint or ResourceConstraint(cpu_units=1)
        self.runtime_config = runtime_config
        self.stoppers = list(stoppers or [])
        self.batch_size = batch_size
        self.visualize = visualize
        self.study_name = study_name
        self.callbacks = list(callbacks or [])
        self.resume_from = resume_from
        #: Per-study override of ``RuntimeConfig.max_trial_retries`` —
        #: lets service tenants carry their own resilience budget over a
        #: shared runtime (None = inherit the runtime's knob).
        self.max_trial_retries = max_trial_retries
        self.stop_reason: Optional[str] = None
        #: trial_id -> resubmissions so far (fail-soft trial retries).
        self._trial_retries: Dict[int, int] = {}
        #: Cooperative-preemption accounting, surfaced as
        #: ``study.metadata["preemption"]`` when anything happened.
        self._preempt_stats = {
            "suspended": 0,
            "resumed": 0,
            "spills": 0,
            "epochs_lost": 0,
            "rung_promotions": 0,
        }
        #: preempt key -> epoch cursor of the last suspend spill, to
        #: measure epochs lost when the resumption reports where it
        #: actually restarted (0 on the happy path).
        self._suspend_cursors: Dict[str, int] = {}
        #: trial_id -> assigned preempt key, and config fingerprint ->
        #: occurrence count backing the assignment (see ``_preempt_key``).
        self._preempt_keys: Dict[int, str] = {}
        self._preempt_occ: Dict[str, int] = {}

        self._experiment_def = TaskDefinition(
            func=self.objective,
            name="experiment",
            returns=object,
            n_returns=1,
            constraint=self.constraint,
        )
        self._viz_def = TaskDefinition(
            func=summarise_result,
            name="visualisation",
            returns=object,
            n_returns=1,
            constraint=ResourceConstraint(cpu_units=1),
        )
        self._plot_def = TaskDefinition(
            func=combine_plots,
            name="plot",
            returns=object,
            n_returns=1,
            constraint=ResourceConstraint(cpu_units=1),
        )
        self.stage_plan = stage_plan
        self._warned_target = False
        #: trial_id -> the invocations of its stage chain, kept until the
        #: trial resolves so ``duration_s`` can sum their body times.
        self._stage_chains: Dict[int, List[Any]] = {}
        if stage_plan is not None:
            train_body, final_body = STAGE_BODIES[stage_plan.objective]
            light = ResourceConstraint(cpu_units=1)
            self._stage_prepare_def = TaskDefinition(
                func=stage_prepare, name="stage_prepare", returns=object,
                n_returns=1, constraint=light, cacheable=True,
            )
            self._stage_train_def = TaskDefinition(
                func=train_body, name="stage_train", returns=object,
                n_returns=1, constraint=self.constraint, cacheable=True,
            )
            self._stage_final_def = TaskDefinition(
                func=final_body, name="stage_final", returns=object,
                n_returns=1, constraint=light, cacheable=True,
            )

    # ------------------------------------------------------------------
    def run(self) -> Study:
        """Execute the study; returns it with all trial results filled."""
        runtime = current_runtime()
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = COMPSsRuntime(
                self.runtime_config or RuntimeConfig(),
                resume_from=self.resume_from,
            ).start()
        study = Study(self.study_name)
        study.metadata.update(
            {
                "algorithm": self.algorithm.name,
                "cluster": runtime.cluster.name,
                "constraint": self.constraint.describe(),
            }
        )
        stopwatch = Stopwatch().start()
        for cb in self.callbacks:
            cb.on_study_begin(study)
        stopped = False
        outstanding: List[Tuple[Trial, Any]] = []
        viz_futures: List[Any] = []
        try:
            while True:
                if not stopped:
                    batch = self.algorithm.ask(self.batch_size)
                    for config in batch:
                        trial = study.new_trial(config)
                        trial.status = TrialStatus.RUNNING
                        fut = self._submit_trial(runtime, trial)
                        outstanding.append((trial, fut))
                        for cb in self.callbacks:
                            cb.on_trial_start(study, trial)
                        if self.visualize:
                            viz_futures.append(
                                runtime.submit(self._viz_def, (fut,), {})
                            )
                if not outstanding:
                    if stopped or self.algorithm.is_exhausted:
                        break
                    if not batch:
                        # Algorithm has nothing to offer and nothing runs:
                        # avoid spinning forever.
                        _log.warning(
                            "algorithm %s returned no configs while not "
                            "exhausted; stopping", self.algorithm.name,
                        )
                        break
                    continue
                trial, fut = outstanding.pop(0)
                retry_fut = self._resolve(runtime, study, trial, fut)
                if retry_fut is not None:
                    # Fail-soft: the trial's task exhausted its task-level
                    # retry budget, but the study resubmits it rather than
                    # losing the trial (up to max_trial_retries times).
                    outstanding.append((trial, retry_fut))
                    continue
                self.algorithm.tell(trial)
                self._drain_rung_events(runtime)
                for cb in self.callbacks:
                    cb.on_trial_complete(study, trial)
                if not stopped and trial.status == TrialStatus.COMPLETED:
                    for stopper in self.stoppers:
                        if stopper.should_stop(study, trial):
                            stopped = True
                            self.stop_reason = stopper.reason()
                            _log.info("study stopped early: %s", self.stop_reason)
                            for t, _ in outstanding:
                                t.status = TrialStatus.PRUNED
                            outstanding.clear()
                            break
            if self.visualize and viz_futures and not stopped:
                plot_fut = runtime.submit(self._plot_def, (viz_futures,), {})
                study.metadata["plot"] = runtime.wait_on(plot_fut)
            study.total_duration_s = (
                runtime.virtual_time
                if runtime.virtual_time is not None
                else stopwatch.elapsed
            )
            study.metadata["stopped_early"] = stopped
            if self.stop_reason:
                study.metadata["stop_reason"] = self.stop_reason
            resume = runtime.resume_stats()
            if resume is not None:
                # Crash resume: surface what the journal replay recovered
                # (restored counts include this session's instant restores).
                # Session-aware: in service mode this summarises the
                # calling study's own recovery, not the whole daemon's.
                study.metadata["resume"] = resume
            resilience_counts = runtime.resilience.counts()
            if resilience_counts:
                # Worker crashes, hard kills, poison quarantines, retries,
                # speculation — shown by `repro report` alongside the rest
                # of the study metadata.
                study.metadata["resilience_events"] = resilience_counts
            if runtime.integrity is not None:
                # Sealed/verified/repaired counters from the end-to-end
                # data-integrity layer (config.verify_outputs).
                study.metadata["integrity"] = runtime.integrity.stats()
            churn = runtime.analysis().churn()
            if any(churn.values()):
                # Preemptions, drains, rejoins, starvation — the elastic
                # view of the run (absent on a static, healthy cluster).
                study.metadata["churn"] = churn
            dispatch = runtime.analysis().dispatch()
            if dispatch["rounds"]:
                # Batched-scheduling observability: rounds vs placements
                # (avg_batch_size ≫ 1 means batching is engaged), class
                # wakes and blocked-class skips.
                study.metadata["dispatch"] = dispatch
            if any(self._preempt_stats.values()):
                # Warm suspensions, resumes, spills, epochs lost to cold
                # restarts and async-ASHA rung promotions.
                study.metadata["preemption"] = dict(self._preempt_stats)
            if runtime.reuse is not None:
                # Verified hits, misses, in-study joins, corruption
                # detections and evictions of stage reuse.
                study.metadata["reuse"] = runtime.reuse.stats()
            for cb in self.callbacks:
                cb.on_study_end(study)
        finally:
            if owns_runtime:
                # If we pruned trials, abandon their tasks instead of
                # waiting for them.
                runtime.stop(wait=not stopped)
        return study

    # ------------------------------------------------------------------
    # Cooperative preemption
    # ------------------------------------------------------------------
    def _preempt_key(self, trial: Trial) -> str:
        """Stable spill identity for one trial (memoised per trial id).

        The ASHA lineage id wins when present, so a rung promotion
        warm-resumes its predecessor's pause spill.  Otherwise the key is
        *config-derived* — fingerprint plus occurrence among identical
        configs — never the trial id: trial-id-to-config pairing depends
        on thread timing, and since the key rides inside the submitted
        config it would otherwise destabilise the deterministic task keys
        a resumed session matches against its journal.  Same-config
        trials are interchangeable, so occurrence order among them is
        harmless exactly as it is for the task keyer's own counters.

        The study name prefixes every key: on a shared service runtime
        one :class:`PreemptionController` serves all tenants, and two
        studies drawing the same config (or the same ASHA lineage ids)
        must not alias each other's flags or registry entries.  The
        prefix is stable across daemon generations (it is the study id),
        so resumed sessions still find their spills.
        """
        assigned = self._preempt_keys.get(trial.trial_id)
        if assigned is not None:
            return assigned
        asha_id = trial.config.get("_asha_id")
        if asha_id:
            key = f"{self.study_name}:{asha_id}"
        else:
            fingerprint = hashlib.sha1(
                repr(
                    sorted((k, repr(v)) for k, v in trial.config.items())
                ).encode("utf-8")
            ).hexdigest()[:12]
            occurrence = self._preempt_occ.get(fingerprint, 0)
            self._preempt_occ[fingerprint] = occurrence + 1
            key = f"{self.study_name}:{fingerprint}-{occurrence}"
        self._preempt_keys[trial.trial_id] = key
        return key

    def _submit_trial(
        self, runtime: COMPSsRuntime, trial: Trial, resume_epoch: Optional[int] = None
    ) -> Any:
        """Submit (or resubmit) a trial's experiment task.

        When the runtime has a durable spill target, a preemption context
        is injected into the *submitted copy* of the config (the trial's
        own config stays clean) and the trial is registered with the
        runtime's :class:`PreemptionController`.  ``resume_epoch``
        extends the resumed task's deterministic key beyond the
        original's — the occurrence counter alone would also distinguish
        them, but the kwarg makes the lineage readable in the journal.
        """
        if self.stage_plan is not None:
            return self._submit_staged_trial(runtime, trial)
        task_config = dict(trial.config)
        spill_dir = runtime.preempt_spill_dir()
        if spill_dir is not None:
            ctx = PreemptContext(
                self._preempt_key(trial),
                spill_dir,
                every=runtime.config.preempt_checkpoint_epochs,
            )
            task_config[PREEMPT_CONFIG_KEY] = ctx.spec()
            kwargs = {} if resume_epoch is None else {"resume_epoch": int(resume_epoch)}
            fut = runtime.submit(self._experiment_def, (task_config,), kwargs)
            runtime.preemption.register(ctx, fut.invocation)
            return fut
        return runtime.submit(self._experiment_def, (task_config,), {})

    def _submit_staged_trial(self, runtime: COMPSsRuntime, trial: Trial) -> Any:
        """Submit one trial as its prepare → train-block → final chain.

        The returned future is the final stage's; intermediate futures
        stay internal (the graph carries the chain).  Trials sharing a
        config prefix submit identical stage invocations whose content
        keys collide; with the reuse cache on the runtime joins them, so
        the futures below may belong to nodes a sibling submitted.  No
        preemption context is injected: block boundaries already bound
        the work a lost node can take.
        """
        if trial.config.get("target_accuracy") is not None and (
            not self._warned_target
        ):
            self._warned_target = True
            _log.warning(
                "target_accuracy is ignored in staged mode (a data-dependent "
                "early exit would break stage purity)"
            )
        prep, params, epochs = split_config(trial.config)
        state = runtime.submit(self._stage_prepare_def, (prep,), {})
        chain = [state.invocation]
        for start, end in self.stage_plan.blocks(epochs):
            state = runtime.submit(
                self._stage_train_def, (state, params, start, end), {}
            )
            chain.append(state.invocation)
        final = runtime.submit(self._stage_final_def, (state, params), {})
        chain.append(final.invocation)
        self._stage_chains[trial.trial_id] = chain
        return final

    def _handle_suspension(
        self, runtime: COMPSsRuntime, study: Study, trial: Trial,
        fut: Any, payload: Mapping[str, Any],
    ) -> Any:
        """A trial spilled warm and stopped: requeue it as a resumable task."""
        key = self._preempt_key(trial)
        cursor = int(payload.get("epochs_done", 0))
        self._preempt_stats["suspended"] += 1
        self._preempt_stats["spills"] += 1
        self._suspend_cursors[key] = cursor
        runtime.resilience.record(
            runtime.executor.clock(), rsl.SUSPEND_SPILL,
            task_label=fut.invocation.label,
            node=fut.invocation.node or "",
            detail=f"key={key} epochs_done={cursor}",
        )
        # The guard hooks may raise (e.g. the service decided to suspend
        # the whole study) — then the spill stays on disk and the study's
        # eventual resumption warm-restores it.
        for cb in self.callbacks:
            cb.on_trial_suspended(study, trial)
        runtime.preemption.resume_trial(key)
        self._preempt_stats["resumed"] += 1
        runtime.resilience.record(
            runtime.executor.clock(), rsl.TRIAL_RESUMED,
            task_label=fut.invocation.label,
            detail=f"key={key} resume_epoch={cursor}",
        )
        _log.info(
            "trial %d suspended at epoch %d; resubmitting warm",
            trial.trial_id, cursor,
        )
        return self._submit_trial(runtime, trial, resume_epoch=cursor)

    def _account_resume(self, trial: Trial, payload: Mapping[str, Any]) -> None:
        """Fold a finished trial's resume cursor into epochs-lost stats."""
        key = self._preempt_key(trial)
        cursor = self._suspend_cursors.pop(key, None)
        if cursor is None:
            return
        resumed_from = int(payload.get("resumed_from", 0))
        self._preempt_stats["epochs_lost"] += max(0, cursor - resumed_from)

    def _drain_rung_events(self, runtime: COMPSsRuntime) -> None:
        """Record async-ASHA promotion decisions as resilience events."""
        pop = getattr(self.algorithm, "pop_events", None)
        if pop is None:
            return
        for ev in pop():
            self._preempt_stats["rung_promotions"] += 1
            runtime.resilience.record(
                runtime.executor.clock(), rsl.RUNG_PROMOTION,
                detail=(
                    f"id={ev.get('id')} rung={ev.get('from_rung')}->"
                    f"{ev.get('to_rung')} epochs={ev.get('epochs')} "
                    f"val_acc={ev.get('val_accuracy')}"
                ),
            )

    # ------------------------------------------------------------------
    def _resolve(
        self, runtime: COMPSsRuntime, study: Study, trial: Trial, fut: Any
    ) -> Optional[Any]:
        """Wait for one experiment future and fill the trial.

        Returns a replacement future when the trial is resubmitted —
        under ``RuntimeConfig.max_trial_retries`` (study-level fail-soft)
        or after a warm suspension — else ``None`` once the trial is
        terminally resolved.
        """
        try:
            payload = runtime.wait_on(fut)
        except TaskFailedError as exc:
            if isinstance(exc.cause, StudyAbandonedError):
                # The whole study was terminated out from under us
                # (drain, cancel, budget exhaustion): this is not a trial
                # failure to absorb — the run must stop here so the
                # service layer decides the study's terminal state.
                raise exc.cause from exc
            budget = (
                self.max_trial_retries
                if self.max_trial_retries is not None
                else runtime.config.max_trial_retries
            )
            retries = self._trial_retries.get(trial.trial_id, 0)
            if retries < budget:
                self._trial_retries[trial.trial_id] = retries + 1
                runtime.resilience.record(
                    runtime.executor.clock(),
                    rsl.TRIAL_RETRY,
                    task_label=fut.invocation.label,
                    detail=(
                        f"trial {trial.trial_id} resubmitted "
                        f"({retries + 1}/{budget})"
                    ),
                )
                _log.info(
                    "trial %d lost its task (%s); resubmitting (%d/%d)",
                    trial.trial_id, exc, retries + 1, budget,
                )
                # Re-inject the preemption context: if the lost task had
                # spilled warm before dying, the retry resumes from it.
                return self._submit_trial(runtime, trial)
            trial.status = TrialStatus.FAILED
            trial.error = str(exc)
            self._stage_chains.pop(trial.trial_id, None)
            runtime.preemption.unregister(self._preempt_key(trial))
            return None
        invocation = fut.invocation
        if payload is None:
            # Simulated executor without execute_bodies: fabricate the
            # minimal result (timing experiments don't read accuracies).
            payload = {"val_accuracy": float("nan")}
        if isinstance(payload, Mapping) and payload.get(SUSPENDED_PAYLOAD_KEY):
            return self._handle_suspension(runtime, study, trial, fut, payload)
        if isinstance(payload, Mapping):
            self._account_resume(trial, payload)
        runtime.preemption.unregister(self._preempt_key(trial))
        result = TrialResult.from_mapping(payload)
        if result.node is None:
            result.node = invocation.node
        # A staged trial's time is the summed body time of its own chain
        # (a block shared with siblings counts for each of them; restored
        # and cache-hit stages never ran, so they add nothing).
        chain = self._stage_chains.pop(trial.trial_id, None) or [invocation]
        timed = [
            t.end_time - t.start_time for t in chain
            if t.start_time is not None and t.end_time is not None
        ]
        if timed:
            result.duration_s = sum(timed)
        trial.result = result
        trial.status = TrialStatus.COMPLETED
        return None
