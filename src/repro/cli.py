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
import inspect
import json
import sys
from pathlib import Path
from typing import List, Optional

import repro.simcluster as simcluster  # a lazy surface: loads no preset yet
from repro.util.knobs import KnobField, check_knob, knob_fields
from repro.util.logging_utils import set_verbosity
from repro.util.timing import format_duration

CLUSTERS = {
    "local": lambda n: simcluster.local_machine(cpu_cores=4 * max(1, n)),
    "mn4": lambda n: simcluster.mare_nostrum4(n),
    "minotauro": lambda n: simcluster.minotauro(n),
    "power9": lambda n: simcluster.cte_power9(n),
}


def _algorithm_kwargs(args) -> dict:
    """Budget/seed kwargs the chosen algorithm takes (run and submit)."""
    from repro.hpo.algorithms import ALGORITHMS

    params = inspect.signature(ALGORITHMS[args.algorithm]).parameters
    return {k: getattr(args, k) for k in ("n_trials", "seed") if k in params}


def _dest(field: KnobField) -> str:
    # A switch keeps its flag's name (``--no-tracing`` -> ``no_tracing``);
    # a value flag stores under the field's own name.
    if field.type is bool:
        return field.knob.flag.lstrip("-").replace("-", "_")
    return field.name


def _knob_type(cls, field: KnobField):
    """argparse ``type=``: parse, map the "off" value to None, check."""
    def convert(text: str):
        value = field.type(text)
        if value == field.knob.off:
            return None
        try:
            return check_knob(cls, field, value)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    # argparse names the type in its own "invalid int value" message.
    convert.__name__ = field.type.__name__
    return convert


def add_knob_flags(parser, cls, *names: str) -> None:
    """Add the declared flags of ``cls``'s knobs ``names``, in order."""
    fields = {f.name: f for f in knob_fields(cls)}
    for name in names:
        field = fields[name]
        spec = field.knob
        if field.type is bool:
            parser.add_argument(spec.flag, action="store_true", help=spec.help)
            continue
        parser.add_argument(
            spec.flag, dest=field.name, default=field.default,
            choices=spec.choices,
            type=None if spec.choices else _knob_type(cls, field),
            help=spec.help,
        )


def knob_values(args, cls) -> dict:
    """The parsed values of ``cls``'s knobs that ``args`` carries a flag for.

    A switch flips its knob's default.
    """
    values = {}
    for field in knob_fields(cls):
        if field.knob.flag is None or not hasattr(args, _dest(field)):
            continue
        value = getattr(args, _dest(field))
        if field.type is bool:
            value = (not field.default) if value else field.default
        values[field.name] = value
    return values


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs).

    With ``command``, the ``run``, ``serve`` and ``submit`` parsers
    get their arguments only when it names them, so a client command
    imports no runtime config for their knob flags; without it,
    every parser is complete.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Distributed HPO over the PyCOMPSs-like runtime "
        "(reproduction of Kahira et al., ICPP 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an HPO study from a JSON config")
    if command in (None, "run"):
        from repro.runtime.config import RuntimeConfig
        from repro.service.protocol import StudyRequest

        run.add_argument("config", type=Path, help="Listing-1 style JSON file")
        run.add_argument("--cluster", choices=sorted(CLUSTERS), default="local")
        run.add_argument("--nodes", type=int, default=1, help="number of nodes")
        add_knob_flags(
            run, RuntimeConfig, "executor", "backend", "task_timeout_s",
            "max_tasks_per_worker", "poison_threshold", "scheduler",
        )
        add_knob_flags(run, StudyRequest, "algorithm")
        run.add_argument("--n-trials", type=int, default=20,
                         help="budget for non-exhaustive algorithms")
        run.add_argument("--seed", type=int, default=0)
        run.add_argument("--cores-per-task", type=int, default=1)
        run.add_argument("--gpus-per-task", type=int, default=0)
        add_knob_flags(run, RuntimeConfig, "reserved_cores")
        run.add_argument("--target-accuracy", type=float, default=None,
                         help="stop the whole study once reached (paper §6.1)")
        run.add_argument("--mock-objective", action="store_true",
                         help="skip real training; use the deterministic mock")
        add_knob_flags(run, RuntimeConfig, "tracing", "graph")
        run.add_argument("--out-dir", type=Path, default=None,
                         help="directory for study/trace/graph artifacts")
        add_knob_flags(run, RuntimeConfig, "checkpoint_dir", "checkpoint_every")
        run.add_argument("--resume-from", default=None,
                         help="checkpoint directory (or journal.jsonl) of a "
                         "crashed run; completed tasks are restored, not rerun")
        add_knob_flags(
            run, RuntimeConfig, "reuse_cache", "cache_dir", "cache_max_bytes"
        )
        add_knob_flags(run, StudyRequest, "stage_epochs")
        add_knob_flags(
            run, RuntimeConfig, "verify_outputs", "replication_factor",
            "transfer_retries", "drain_deadline_s", "starvation_timeout_s",
            "preempt_checkpoint_epochs", "suspend_grace_s",
            "max_suspended_trials",
        )
        run.add_argument("--verbose", action="store_true")

    describe = sub.add_parser(
        "describe-cluster", help="print a cluster preset's hardware"
    )
    describe.add_argument("--cluster", choices=sorted(CLUSTERS), default="mn4")
    describe.add_argument("--nodes", type=int, default=1)

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
    if command in (None, "serve"):
        from repro.runtime.config import RuntimeConfig
        from repro.service.admission import AdmissionConfig

        serve.add_argument("root", type=Path, help="service root directory")
        serve.add_argument("--cluster", choices=sorted(CLUSTERS), default="local")
        serve.add_argument("--nodes", type=int, default=1)
        add_knob_flags(serve, RuntimeConfig, "executor", "backend", "scheduler")
        add_knob_flags(
            serve, AdmissionConfig, "max_queued_studies", "max_queued_per_tenant",
            "max_studies_per_tenant", "max_concurrent_studies", "rss_limit_mb",
        )
        add_knob_flags(serve, RuntimeConfig, "reuse_cache", "cache_max_bytes")
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
    if command in (None, "submit"):
        from repro.service.protocol import StudyRequest

        submit.add_argument("root", type=Path, help="service root directory")
        submit.add_argument("study_id", help="unique study id (idempotency key)")
        submit.add_argument("config", type=Path,
                            help="Listing-1 style JSON search-space file")
        add_knob_flags(submit, StudyRequest, "tenant", "algorithm")
        submit.add_argument("--n-trials", type=int, default=20)
        submit.add_argument("--seed", type=int, default=0)
        add_knob_flags(
            submit, StudyRequest, "objective", "priority", "weight", "batch_size",
            "max_trial_retries", "max_failed_trials", "max_tenant_slots",
            "stage_epochs",
        )
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


def _make_runtime_config(args):
    from repro.runtime.config import RuntimeConfig

    return RuntimeConfig(
        cluster=CLUSTERS[args.cluster](args.nodes),
        execute_bodies=True,
        **knob_values(args, RuntimeConfig),
    )


def cmd_run(args) -> int:
    # The runtime, HPO and ML stacks load here, in the one command that
    # runs a study in this process: the service client commands stay light.
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
    from repro.runtime.runtime import COMPSsRuntime
    from repro.runtime.stats import render_resilience, render_stats
    from repro.runtime.tracing import export_prv

    set_verbosity(args.verbose)
    space = load_search_space(args.config)
    algorithm = get_algorithm(args.algorithm, space, **_algorithm_kwargs(args))

    stoppers = []
    if args.target_accuracy is not None:
        stoppers.append(TargetAccuracyStopper(args.target_accuracy))

    objective = fast_mock_objective if args.mock_objective else train_experiment
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
        _make_runtime_config(args), resume_from=args.resume_from
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
        analysis = runtime.analysis()
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
            analysis.summary(),
            "",
            render_stats(runtime.tracer),
        ]
        dispatch = analysis.dispatch()
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
        churn = analysis.churn()
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
        preempt = analysis.preemption()
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


def _replay(path: Path):
    """A checkpoint directory and its replayed journal, or an exit code."""
    from repro.runtime.checkpoint import (
        JOURNAL_FILE,
        JournalCorruptError,
        RecoveryManager,
    )

    if path.name == JOURNAL_FILE:
        path = path.parent
    if not (path / JOURNAL_FILE).exists():
        print(f"no {JOURNAL_FILE} found in {path}", file=sys.stderr)
        return path, 1
    try:
        return path, RecoveryManager(path)
    except JournalCorruptError as exc:
        print(f"journal corrupt: {exc}", file=sys.stderr)
        return path, 2


def cmd_recover(args) -> int:
    from repro.runtime.reuse import ReuseCache

    path, recovery = _replay(args.journal)
    if isinstance(recovery, int):
        return recovery
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
    from repro.runtime.reuse import ReuseCache

    path, recovery = _replay(args.journal)
    if isinstance(recovery, int):
        return recovery
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

    from repro.service import HPOService
    from repro.service.admission import AdmissionConfig

    set_verbosity(args.verbose)
    service = HPOService(
        args.root,
        runtime_config=_make_runtime_config(args),
        admission=AdmissionConfig(**knob_values(args, AdmissionConfig)),
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
    from repro.service import ServiceClient, ServiceError
    from repro.service.protocol import StudyRequest

    spec = json.loads(args.config.read_text(encoding="utf-8"))
    request = StudyRequest(
        study_id=args.study_id,
        space=spec,
        algorithm_kwargs=_algorithm_kwargs(args),
        **knob_values(args, StudyRequest),
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


COMMANDS = {
    "run": cmd_run,
    "describe-cluster": cmd_describe_cluster,
    "report": cmd_report,
    "recover": cmd_recover,
    "gc": cmd_gc,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "watch": cmd_watch,
    "cancel": cmd_cancel,
    "service-status": cmd_service_status,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
