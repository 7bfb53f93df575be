"""Command-line launcher — the ``runcompss`` equivalent.

The paper launches the HPO application with::

    runcompss application.py json_file

Here the application is built in (the §4 HPO scheme), so the launcher
takes the JSON config plus the runtime knobs that ``runcompss`` / the job
script would provide: cluster, node count, scheduler, tracing/graph
flags, algorithm, per-task resources and early stopping::

    python -m repro.cli run config.json --cluster mn4 --nodes 2 \
        --executor simulated --cores-per-task 1 --reserved-cores 24 \
        --algorithm grid --target-accuracy 0.95 \
        --out-dir results/

Artifacts written to ``--out-dir``: ``study.json``, ``study.csv``,
``history.csv``, ``graph.dot`` (Fig. 3), ``trace.prv`` (Paraver-style)
and ``report.txt`` (tables + ASCII figures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.hpo import (
    PyCOMPSsRunner,
    TargetAccuracyStopper,
    accuracy_curves,
    export_history_csv,
    get_algorithm,
    load_search_space,
)
from repro.hpo.objective import fast_mock_objective, train_experiment
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.reuse import ReuseCache
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.stats import render_resilience, render_stats
from repro.runtime.tracing import export_prv
from repro.simcluster import (
    cte_power9,
    local_machine,
    mare_nostrum4,
    minotauro,
)
from repro.util.logging_utils import set_verbosity
from repro.util.timing import format_duration

CLUSTERS = {
    "local": lambda n: local_machine(cpu_cores=4 * max(1, n)),
    "mn4": mare_nostrum4,
    "minotauro": minotauro,
    "power9": cte_power9,
}

ALGORITHMS = ["grid", "random", "bayesian", "tpe", "hyperband",
              "successive_halving", "evolutionary", "asha"]
EXECUTORS = ["local", "simulated"]
BACKENDS = ["threads", "workers"]
SCHEDULERS = ["fifo", "priority", "locality", "lpt"]


def _algorithm_kwargs(args) -> dict:
    """Budget/seed kwargs the chosen algorithm takes (run and submit)."""
    if args.algorithm in ("random", "bayesian", "tpe", "evolutionary", "asha"):
        return {"n_trials": args.n_trials, "seed": args.seed}
    if args.algorithm in ("hyperband", "successive_halving"):
        return {"seed": args.seed}
    return {}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Distributed HPO over the PyCOMPSs-like runtime "
        "(reproduction of Kahira et al., ICPP 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an HPO study from a JSON config")
    run.add_argument("config", type=Path, help="Listing-1 style JSON file")
    run.add_argument("--cluster", choices=sorted(CLUSTERS), default="local")
    run.add_argument("--nodes", type=int, default=1, help="number of nodes")
    run.add_argument("--executor", choices=EXECUTORS, default="local")
    run.add_argument(
        "--backend", choices=BACKENDS, default="threads",
        help="local-executor body backend; 'workers' is the supervised "
        "worker-process pool (crash containment, hard-kill deadlines, "
        "poison-task quarantine)",
    )
    run.add_argument("--task-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-attempt deadline; on --backend workers a "
                     "hung body is hard-killed at the deadline")
    run.add_argument("--max-tasks-per-worker", type=int, default=None,
                     help="recycle each worker process after this many "
                     "completed tasks (--backend workers)")
    run.add_argument("--poison-threshold", type=int, default=3,
                     help="consecutive worker deaths before a task is "
                     "blacklisted as poison (--backend workers)")
    run.add_argument("--scheduler", choices=SCHEDULERS, default="fifo")
    run.add_argument("--algorithm", choices=ALGORITHMS, default="grid")
    run.add_argument("--n-trials", type=int, default=20,
                     help="budget for non-exhaustive algorithms")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--cores-per-task", type=int, default=1)
    run.add_argument("--gpus-per-task", type=int, default=0)
    run.add_argument("--reserved-cores", type=int, default=0,
                     help="cores kept for the COMPSs worker on node 1")
    run.add_argument("--target-accuracy", type=float, default=None,
                     help="stop the whole study once reached (paper §6.1)")
    run.add_argument("--mock-objective", action="store_true",
                     help="skip real training; use the deterministic mock")
    run.add_argument("--no-tracing", action="store_true",
                     help="disable tracing (the paper's traces-off flag)")
    run.add_argument("--no-graph", action="store_true",
                     help="disable graph label recording")
    run.add_argument("--out-dir", type=Path, default=None,
                     help="directory for study/trace/graph artifacts")
    run.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="enable crash-consistent journaling into this "
                     "directory (journal.jsonl + spilled task outputs)")
    run.add_argument("--checkpoint-every", type=int, default=1,
                     help="spill every Nth completed task's output "
                     "(0 = journal only, no spills)")
    run.add_argument("--resume-from", type=Path, default=None,
                     help="checkpoint directory (or journal.jsonl) of a "
                     "crashed run; completed tasks are restored, not rerun")
    run.add_argument("--reuse-cache", action="store_true",
                     help="share cacheable stages: identical stages of "
                     "this study are joined into one task at submit, and "
                     "every stage output is published to a verified "
                     "content-addressed disk cache that later runs and "
                     "other processes hit (pairs with --stage-epochs)")
    run.add_argument("--cache-dir", type=Path, default=None,
                     help="reuse-cache directory (default: "
                     "<checkpoint-dir>/reuse)")
    run.add_argument("--cache-max-bytes", type=int, default=None,
                     help="reuse-cache size ceiling; least-recently-hit "
                     "entries are evicted past it")
    run.add_argument("--stage-epochs", type=int, default=None,
                     help="decompose each trial into cacheable train "
                     "stages of this many epochs; with --reuse-cache, "
                     "trials sharing a hyperparameter prefix share one "
                     "task per common block (a graph join, no waiting)")
    run.add_argument("--verify-outputs", action="store_true",
                     help="checksum every task output at write time and "
                     "verify it at every consume point; corruption repairs "
                     "from a replica or re-executes the writer")
    run.add_argument("--replication-factor", type=int, default=1,
                     help="simulated data plane: copies of each task "
                     "output (primary + N-1 replicas)")
    run.add_argument("--transfer-retries", type=int, default=2,
                     help="cross-node transfer retries before falling "
                     "back to a replica / recompute (simulated executor)")
    run.add_argument("--drain-deadline", type=float, default=120.0,
                     help="graceful-drain window in seconds: a draining "
                     "node that still has running tasks at the deadline "
                     "escalates to a node failure (lineage recovery)")
    run.add_argument("--starvation-timeout", type=float, default=300.0,
                     help="seconds a task whose constraint no live node "
                     "can satisfy waits for a rejoin before failing with "
                     "ResourceStarvationError; 0 disables the watchdog "
                     "(tasks wait forever)")
    run.add_argument("--preempt-checkpoint-epochs", type=int, default=1,
                     help="checkpoint-epoch cadence: preemptible trials "
                     "poll their suspension flag every Nth epoch end "
                     "(requires --checkpoint-dir for the spill target)")
    run.add_argument("--suspend-grace", type=float, default=30.0,
                     help="seconds a suspend-flagged trial gets to spill "
                     "warm before its tasks are abandoned (the spill "
                     "still warm-resumes whatever landed)")
    run.add_argument("--max-suspended-trials", type=int, default=64,
                     help="ceiling on concurrently suspended trials; "
                     "suspend requests past it are refused so a flapping "
                     "watchdog cannot park an entire study")
    run.add_argument("--verbose", action="store_true")

    inspect = sub.add_parser(
        "describe-cluster", help="print a cluster preset's hardware"
    )
    inspect.add_argument("--cluster", choices=sorted(CLUSTERS), default="mn4")
    inspect.add_argument("--nodes", type=int, default=1)

    report = sub.add_parser(
        "report", help="render a full report from a saved study.json"
    )
    report.add_argument("study", type=Path, help="study.json checkpoint")
    report.add_argument("--out", type=Path, default=None,
                        help="also write the report to this file")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable study dump instead of the "
                        "rendered report")

    recover = sub.add_parser(
        "recover",
        help="replay a crashed run's write-ahead journal and report what "
        "a resumed session would restore",
    )
    recover.add_argument(
        "journal", type=Path,
        help="checkpoint directory or its journal.jsonl",
    )
    recover.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable summary")
    recover.add_argument("--cache-dir", type=Path, default=None,
                         help="reuse-cache directory to health-scan "
                         "(default: <dir>/reuse when present)")

    gc = sub.add_parser(
        "gc",
        help="sweep a checkpoint directory: spills no journal record "
        "references, torn temp files, leftover reuse-cache lease files "
        "and corrupt cache entries",
    )
    gc.add_argument(
        "journal", type=Path,
        help="checkpoint directory or its journal.jsonl",
    )
    gc.add_argument("--cache-dir", type=Path, default=None,
                    help="reuse-cache directory to sweep "
                    "(default: <dir>/reuse when present)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be reclaimed without deleting")
    gc.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable summary")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HPO service daemon over a spool "
        "directory (fault-isolated studies, admission control, "
        "whole-daemon crash recovery)",
    )
    serve.add_argument("root", type=Path, help="service root directory")
    serve.add_argument("--cluster", choices=sorted(CLUSTERS), default="local")
    serve.add_argument("--nodes", type=int, default=1)
    serve.add_argument("--executor", choices=EXECUTORS, default="local")
    serve.add_argument("--backend", choices=BACKENDS, default="threads")
    serve.add_argument("--scheduler", choices=SCHEDULERS, default="fifo")
    serve.add_argument("--max-queued-studies", type=int, default=16,
                       help="bound on the admission queue (QueueFullError "
                       "beyond it)")
    serve.add_argument("--max-queued-per-tenant", type=int, default=8,
                       help="per-tenant queue share (TenantQuotaError "
                       "beyond it)")
    serve.add_argument("--max-studies-per-tenant", type=int, default=2,
                       help="cap on one tenant's concurrently running "
                       "studies (over-quota studies wait in the queue)")
    serve.add_argument("--max-concurrent-studies", type=int, default=4,
                       help="daemon-wide concurrent-study cap")
    serve.add_argument("--rss-limit-mb", type=float, default=None,
                       help="memory ceiling: shed queued studies and "
                       "reject submissions while over it")
    serve.add_argument("--reuse-cache", action="store_true",
                       help="share a verified stage cache across all "
                       "tenants (anchored at <root>/reuse-cache); a staged "
                       "study joins its own identical stages at submit and "
                       "reads other tenants' published blocks from disk "
                       "(the first publish of a block wins)")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       help="shared reuse-cache size ceiling (LRU)")
    serve.add_argument("--drain-deadline", type=float, default=30.0,
                       help="graceful-shutdown budget; stragglers are "
                       "re-queued for the next daemon life")
    serve.add_argument("--heartbeat", type=float, default=1.0,
                       help="daemon.json liveness stamp cadence (seconds)")
    serve.add_argument("--once", action="store_true",
                       help="serve until the inbox/queue/running set is "
                       "empty, then exit (CI soak mode)")
    serve.add_argument("--max-wait", type=float, default=None,
                       help="with --once: fail if not idle in this time")
    serve.add_argument("--verbose", action="store_true")

    submit = sub.add_parser(
        "submit", help="submit a study to a running service daemon"
    )
    submit.add_argument("root", type=Path, help="service root directory")
    submit.add_argument("study_id", help="unique study id (idempotency key)")
    submit.add_argument("config", type=Path,
                        help="Listing-1 style JSON search-space file")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--algorithm", default="grid", choices=ALGORITHMS)
    submit.add_argument("--n-trials", type=int, default=20)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--objective", default="fast_mock",
                        help="objective spec: fast_mock | slow_mock | "
                        "preemptible_mock | poison | train | "
                        "module:function")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--weight", type=float, default=1.0)
    submit.add_argument("--batch-size", type=int, default=None)
    submit.add_argument("--max-trial-retries", type=int, default=0)
    submit.add_argument("--max-failed-trials", type=int, default=None)
    submit.add_argument("--max-tenant-slots", type=int, default=None)
    submit.add_argument("--stage-epochs", type=int, default=None,
                        help="decompose trials into cacheable epoch "
                        "blocks of this size (when the daemon runs with "
                        "--reuse-cache: joined inside the study, shared "
                        "across tenants through the disk cache)")
    submit.add_argument("--timeout", type=float, default=30.0,
                        help="seconds to wait for the admission verdict")
    submit.add_argument("--no-wait", action="store_true",
                        help="drop the request and return immediately")

    watch = sub.add_parser(
        "watch", help="wait for a submitted study to reach a terminal state"
    )
    watch.add_argument("root", type=Path)
    watch.add_argument("study_id")
    watch.add_argument("--timeout", type=float, default=300.0)
    watch.add_argument("--json", action="store_true", dest="as_json")

    cancel = sub.add_parser("cancel", help="cancel a queued/running study")
    cancel.add_argument("root", type=Path)
    cancel.add_argument("study_id")

    svc_status = sub.add_parser(
        "service-status", help="daemon liveness + per-state study counts"
    )
    svc_status.add_argument("root", type=Path)
    svc_status.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _make_runtime_config(args) -> RuntimeConfig:
    cluster = CLUSTERS[args.cluster](args.nodes)
    return RuntimeConfig(
        cluster=cluster,
        executor=args.executor,
        backend=args.backend,
        task_timeout_s=args.task_timeout,
        max_tasks_per_worker=args.max_tasks_per_worker,
        poison_threshold=args.poison_threshold,
        scheduler=args.scheduler,
        tracing=not args.no_tracing,
        graph=not args.no_graph,
        reserved_cores=args.reserved_cores,
        execute_bodies=True,
        checkpoint_dir=(
            str(args.checkpoint_dir) if args.checkpoint_dir is not None else None
        ),
        checkpoint_every=(args.checkpoint_every or None),
        verify_outputs=args.verify_outputs,
        replication_factor=args.replication_factor,
        transfer_retries=args.transfer_retries,
        drain_deadline_s=args.drain_deadline,
        starvation_timeout_s=(
            args.starvation_timeout if args.starvation_timeout > 0 else None
        ),
        preempt_checkpoint_epochs=args.preempt_checkpoint_epochs,
        suspend_grace_s=args.suspend_grace,
        max_suspended_trials=args.max_suspended_trials,
        reuse_cache=args.reuse_cache,
        cache_dir=(
            str(args.cache_dir) if args.cache_dir is not None else None
        ),
        cache_max_bytes=args.cache_max_bytes,
    )


def cmd_run(args) -> int:
    set_verbosity(args.verbose)
    space = load_search_space(args.config)
    algorithm = get_algorithm(args.algorithm, space, **_algorithm_kwargs(args))

    stoppers = []
    if args.target_accuracy is not None:
        stoppers.append(TargetAccuracyStopper(args.target_accuracy))

    objective = fast_mock_objective if args.mock_objective else train_experiment
    resume_from = (
        str(args.resume_from) if args.resume_from is not None else None
    )
    if args.reuse_cache and args.cache_dir is None and args.checkpoint_dir is None:
        print(
            "--reuse-cache needs a home: pass --cache-dir, or "
            "--checkpoint-dir (the cache then lives under "
            "<checkpoint-dir>/reuse)",
            file=sys.stderr,
        )
        return 2
    stage_plan = None
    if args.stage_epochs is not None:
        from repro.hpo.stages import StagePlan

        stage_plan = StagePlan(
            block_epochs=args.stage_epochs,
            objective="mock" if args.mock_objective else "train",
        )
    runtime = COMPSsRuntime(
        _make_runtime_config(args), resume_from=resume_from
    ).start()
    try:
        runner = PyCOMPSsRunner(
            algorithm,
            objective=objective,
            constraint=ResourceConstraint(
                cpu_units=args.cores_per_task, gpu_units=args.gpus_per_task
            ),
            stoppers=stoppers,
            study_name=args.config.stem,
            stage_plan=stage_plan,
        )
        study = runner.run()
        report_lines = [
            f"cluster: {runtime.cluster.name}  scheduler: {args.scheduler}  "
            f"algorithm: {algorithm.name}",
            f"total: {format_duration(study.total_duration_s)}"
            + (" (virtual)" if args.executor == "simulated" else ""),
            "",
            study.table(limit=15),
            "",
            accuracy_curves(study, max_series=8),
            "",
            runtime.analysis().summary(),
            "",
            render_stats(runtime.tracer),
        ]
        dispatch = runtime.analysis().dispatch()
        if dispatch["rounds"]:
            report_lines += ["", (
                "dispatch: "
                f"{dispatch['rounds']} scheduling round(s), "
                f"{dispatch['placed']} placement(s), "
                f"avg batch {dispatch['avg_batch_size']:.1f} task(s)/round, "
                f"{dispatch['wakes']} class wake(s) "
                f"({dispatch['full_wakes']} full), "
                f"{dispatch['blocked_skips']} blocked-class skip(s)"
            )]
        if runtime.integrity is not None:
            report_lines += ["", runtime.integrity.describe()]
        if runtime.reuse is not None:
            report_lines += ["", runtime.reuse.describe()]
        churn = runtime.analysis().churn()
        if any(churn.values()):
            report_lines += ["", (
                "node churn: "
                f"{churn['preemption_notices']} preemption notice(s), "
                f"{churn['drains_completed']}/{churn['drains_started']} "
                f"drain(s) completed "
                f"({churn['drain_deadline_escalations']} escalated), "
                f"{churn['nodes_lost']} node(s) lost, "
                f"{churn['nodes_rejoined']} rejoined, "
                f"{churn['classes_starved']} class(es) starved, "
                f"{churn['upstream_cancellations']} consumer(s) cancelled"
            )]
        preempt = runtime.analysis().preemption()
        if any(preempt.values()):
            stats = study.metadata.get("preemption", {})
            report_lines += ["", (
                "preemption: "
                f"{preempt['trials_suspended']} trial(s) suspended, "
                f"{preempt['suspend_spills']} warm spill(s), "
                f"{preempt['trials_resumed']} resumed, "
                f"{preempt['rung_promotions']} rung promotion(s), "
                f"{stats.get('epochs_lost', 0)} epoch(s) lost"
            )]
        if len(runtime.resilience):
            report_lines += ["", render_resilience(runtime.resilience)]
        if study.metadata.get("stopped_early"):
            report_lines.insert(2, f"stopped early: {study.metadata['stop_reason']}")
        report = "\n".join(report_lines)
        print(report)

        if args.out_dir is not None:
            out = args.out_dir
            out.mkdir(parents=True, exist_ok=True)
            study.save_json(out / "study.json")
            study.save_csv(out / "study.csv")
            export_history_csv(study, out / "history.csv")
            if not args.no_graph:
                runtime.export_graph(out / "graph.dot")
            if not args.no_tracing:
                export_prv(runtime.tracer, out / "trace.prv")
            (out / "report.txt").write_text(report + "\n", encoding="utf-8")
            print(f"\nartifacts written to {out}/")
        return 0
    finally:
        runtime.stop(wait=False)


def cmd_describe_cluster(args) -> int:
    print(CLUSTERS[args.cluster](args.nodes).describe())
    return 0


def cmd_report(args) -> int:
    from repro.hpo import load_study
    from repro.hpo.report import render_report, save_report

    study = load_study(args.study)
    if args.as_json:
        print(json.dumps(study.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(study))
    if args.out is not None:
        save_report(study, args.out)
        print(f"\nreport written to {args.out}")
    return 0


def cmd_recover(args) -> int:
    from repro.runtime.checkpoint import (
        JOURNAL_FILE,
        JournalCorruptError,
        RecoveryManager,
    )

    path = args.journal
    if path.name == JOURNAL_FILE:
        path = path.parent
    if not (path / JOURNAL_FILE).exists():
        print(f"no {JOURNAL_FILE} found in {path}", file=sys.stderr)
        return 1
    try:
        recovery = RecoveryManager(path)
    except JournalCorruptError as exc:
        print(f"journal corrupt: {exc}", file=sys.stderr)
        return 2
    summary = recovery.summary()
    cache_dir = args.cache_dir if args.cache_dir is not None else path / "reuse"
    cache = ReuseCache.scan(cache_dir)
    if cache is not None:
        summary["reuse_cache"] = cache
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"journal: {summary['journal']}")
    print(f"  sessions: {summary['sessions']}  records: {summary['records']}")
    if summary["truncated_tail"]:
        print("  torn final record dropped (crash mid-write)")
    print(
        f"  tasks seen: {summary['tasks_seen']}  "
        f"completed: {summary['completed']}  "
        f"restorable from checkpoints: {summary['restorable']}"
    )
    spills = summary["spill_integrity"]
    print(
        f"  spill integrity: {spills['ok']} ok / {spills['corrupt']} corrupt "
        f"/ {spills['missing']} missing"
        + (" (corrupt spills re-execute on resume)" if spills["corrupt"] else "")
    )
    print("  unfinished in journal (failed or in flight at a crash): "
          f"{summary['frontier']}")
    if cache is not None:
        print(
            f"  reuse cache: {cache['entries']} entries, {cache['bytes']} B, "
            f"{cache['corrupt']} corrupt, "
            f"{cache['leftovers']} leftover temp/lease file(s), "
            f"{cache['quarantined']} quarantined"
            + (" (corrupt entries re-verify as misses)" if cache["corrupt"]
               else "")
        )
    print(
        "resume with: repro run <config> "
        f"--resume-from {path} --checkpoint-dir {path}"
    )
    return 0


def cmd_gc(args) -> int:
    from repro.runtime.checkpoint import (
        JOURNAL_FILE,
        JournalCorruptError,
        RecoveryManager,
    )

    path = args.journal
    if path.name == JOURNAL_FILE:
        path = path.parent
    if not (path / JOURNAL_FILE).exists():
        print(f"no {JOURNAL_FILE} found in {path}", file=sys.stderr)
        return 1
    try:
        recovery = RecoveryManager(path)
    except JournalCorruptError as exc:
        print(f"journal corrupt: {exc}", file=sys.stderr)
        return 2
    # Every key with a journal record stays: a completed spill is what a
    # resume restores.
    referenced = set(recovery.states)
    spills = recovery.store.sweep_orphans(referenced, dry_run=args.dry_run)
    cache_dir = args.cache_dir if args.cache_dir is not None else path / "reuse"
    cache = ReuseCache.gc(cache_dir, dry_run=args.dry_run)
    summary = {"spills": spills, "reuse_cache": cache}
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"checkpoint gc: {path}")
    print(
        f"  spills: {spills['orphans']} orphan(s), "
        f"{spills['torn_temps']} torn temp(s) — "
        f"{verb} {spills['freed_bytes']} B"
    )
    if spills["orphan_keys"]:
        print(f"    orphan keys: {', '.join(spills['orphan_keys'][:8])}"
              + (" ..." if len(spills["orphan_keys"]) > 8 else ""))
    if cache is not None:
        print(
            f"  reuse cache: {cache['leftovers']} leftover temp/lease "
            f"file(s), {cache['corrupt']} corrupt entr(ies) — "
            f"{verb} {cache['freed_bytes']} B"
        )
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.service import AdmissionConfig, HPOService

    set_verbosity(args.verbose)
    config = RuntimeConfig(
        cluster=CLUSTERS[args.cluster](args.nodes),
        executor=args.executor,
        backend=args.backend,
        scheduler=args.scheduler,
        execute_bodies=True,
        reuse_cache=args.reuse_cache,
        cache_dir=(
            str(Path(args.root) / "reuse-cache") if args.reuse_cache else None
        ),
        cache_max_bytes=args.cache_max_bytes,
    )
    service = HPOService(
        args.root,
        runtime_config=config,
        admission=AdmissionConfig(
            max_queued_studies=args.max_queued_studies,
            max_queued_per_tenant=args.max_queued_per_tenant,
            max_studies_per_tenant=args.max_studies_per_tenant,
            max_concurrent_studies=args.max_concurrent_studies,
            rss_limit_mb=args.rss_limit_mb,
        ),
        drain_deadline_s=args.drain_deadline,
        heartbeat_s=args.heartbeat,
    ).start()

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        service.shutdown(drain=True)

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        if args.once:
            service.run_until_idle(max_wait_s=args.max_wait)
        else:
            service.serve_forever()
    finally:
        if service.runtime is not None:
            service.shutdown(drain=True)
    return 0


def cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError, StudyRequest

    spec = json.loads(args.config.read_text(encoding="utf-8"))
    request = StudyRequest(
        study_id=args.study_id,
        tenant=args.tenant,
        space=spec,
        algorithm=args.algorithm,
        algorithm_kwargs=_algorithm_kwargs(args),
        objective=args.objective,
        batch_size=args.batch_size,
        priority=args.priority,
        weight=args.weight,
        max_trial_retries=args.max_trial_retries,
        max_failed_trials=args.max_failed_trials,
        max_tenant_slots=args.max_tenant_slots,
        stage_epochs=args.stage_epochs,
    )
    client = ServiceClient(args.root, timeout_s=args.timeout)
    try:
        client.submit(request, wait_admission=not args.no_wait)
    except ServiceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"study {args.study_id} submitted"
          + ("" if args.no_wait else " and admitted"))
    return 0


def cmd_watch(args) -> int:
    from repro.service import ClientTimeoutError, ServiceClient

    client = ServiceClient(args.root)
    try:
        state = client.watch(args.study_id, timeout_s=args.timeout)
    except ClientTimeoutError as exc:
        print(f"ClientTimeoutError: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(state, indent=2, sort_keys=True))
    else:
        print(f"study {args.study_id}: {state.get('status')}"
              + (f" — {state['detail']}" if state.get("detail") else ""))
        best = state.get("best")
        if best:
            print(f"  best trial {best['trial_id']}: "
                  f"val_acc={best['val_accuracy']:.3f} {best['config']}")
    return 0 if state.get("status") == "completed" else 2


def cmd_cancel(args) -> int:
    from repro.service import ServiceClient, StudyNotFoundError

    try:
        ServiceClient(args.root).cancel(args.study_id)
    except StudyNotFoundError as exc:
        print(f"StudyNotFoundError: {exc}", file=sys.stderr)
        return 1
    print(f"cancellation requested for {args.study_id}")
    return 0


def cmd_service_status(args) -> int:
    from repro.service import ServiceClient

    status = ServiceClient(args.root).service_status()
    if args.as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    daemon = status["daemon"]
    print(f"daemon: {daemon.get('status', 'absent')}"
          + (f" (pid {daemon['pid']}, generation {daemon['generation']})"
             if "pid" in daemon else ""))
    for state, count in sorted(status["studies"].items()):
        print(f"  {state}: {count}")
    suspended = status.get("suspended", [])
    if suspended:
        # Parked warm, not terminal: the daemon re-enqueues these
        # automatically once memory pressure clears.
        print(f"suspended studies (resume when pressure clears): "
              f"{', '.join(suspended)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "describe-cluster":
        return cmd_describe_cluster(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "recover":
        return cmd_recover(args)
    if args.command == "gc":
        return cmd_gc(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "watch":
        return cmd_watch(args)
    if args.command == "cancel":
        return cmd_cancel(args)
    if args.command == "service-status":
        return cmd_service_status(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
