"""The programs each workload runs, one rep at a time (rep-side).

Every workload follows one shape so ``rep.py`` can time it from outside:

``warm()``      imports, ``cached_dataset``, one direct body call — never
                a runtime session (see "Run discipline" in the README);
``start()``     build the runtime / pool / daemon (end of set-up);
``run()``       the timed region: submit everything, wait for everything;
``snapshot()``  read public counters while the runtime is still alive;
``stop()``      teardown (inside ``cpu_s``, outside ``wall_s``);
``check()``     compare outputs to the reference; any message returned
                fails every unit of the rep.

All workloads are closed-loop batch runs.  Real-execution workloads use
``local_machine(2)``; simulated ones 16 virtual cores on one thread.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.algorithms import get_algorithm
from repro.hpo.objective import fast_mock_objective, train_experiment
from repro.hpo.stages import StagePlan
from repro.ml.datasets import load_mnist_like
from repro.ml.datasets.cache import cached_dataset
from repro.pycompss_api import compss_wait_on, task
from repro.runtime import checkpoint as ckpt
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import COMPSsRuntime
from repro.service import AdmissionConfig, HPOService, ServiceClient, StudyRequest
from repro.simcluster import local_machine

from . import spec, tracer


def rss_mb() -> float:
    """Current resident set size in MiB (Linux ``/proc``)."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _per(total: float, n: float, scale: float = 1e6) -> float:
    return total / n * scale if n else 0.0


def _span(spans, name: str, field: str) -> float:
    """``field`` (count / total_s / self_s) of a span name; 0 if never seen."""
    return spans.get(name, {}).get(field, 0.0)


class Workload:
    """Base: holds inputs, the scratch dir and the span recorder."""

    def __init__(self, inputs: Dict[str, Any], workdir: Path, recorder) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.rec = recorder

    def warm(self) -> None:
        pass

    def reference(self) -> Dict[str, Any]:
        """Reference answers, computed without the runtime under test."""
        raise NotImplementedError

    def break_reference(self, ref: Dict[str, Any]) -> None:
        """Make ``ref`` wrong (the smoke test proves checks can fail)."""
        raise NotImplementedError

    def layer_metrics(self, spans, snap, outputs, ref, wall_s) -> Dict[str, float]:
        return {}

    def untraced_layers(self, outputs) -> Dict[str, float]:
        """Per-layer values the span recorder would distort (memory)."""
        return {}

    def check_layers(self, layers: Dict[str, float]) -> List[str]:
        """Correctness checks on exactly-repeating per-layer values."""
        return []


# ----------------------------------------------------------------------
# Tiny independent tasks: dispatch_100k_sim, stream_75k_journal_sim,
# tiny_5k_workers (and their threads / verify_outputs side runs)
# ----------------------------------------------------------------------
@task(returns=int)
def tiny(x):
    return x + 1


def _unit_duration(task_inv, scale, alloc) -> float:
    return 1.0


class TinyTasks(Workload):
    def warm(self) -> None:
        tiny(0)  # no runtime active: runs inline

    def reference(self) -> Dict[str, Any]:
        return {"offset": 1}  # tiny(x) == x + 1

    def break_reference(self, ref) -> None:
        ref["offset"] = 2

    def start(self) -> None:
        inp = self.inputs
        sim = inp["executor"] == "simulated"
        journal = inp["journal"]
        self.rt = COMPSsRuntime(RuntimeConfig(
            cluster=local_machine(inp["cores"]),
            executor=inp["executor"],
            backend=inp["backend"],
            tracing=inp["runtime_tracing"],
            graph=False,
            stream_completed=inp["stream"],
            checkpoint_dir=str(self.workdir / "ckpt") if journal else None,
            checkpoint_every=None,
            journal_fsync="off" if journal else "commit",
            verify_outputs=inp["verify_outputs"],
            execute_bodies=sim,
            duration_fn=_unit_duration if sim else None,
        )).start()

    def run(self) -> Dict[str, Any]:
        inp = self.inputs
        n, waves, base = inp["units"], inp["waves"], inp["base"]
        per_wave = n // waves
        offset = self.ref["offset"]
        exact = True
        rss: List[float] = []
        for w in range(waves):
            lo = base + w * per_wave
            with self.rec.span(tracer.TASK_CALLS):
                futures = [tiny(x) for x in range(lo, lo + per_wave)]
            got = compss_wait_on(futures)
            exact = exact and got == list(
                range(lo + offset, lo + per_wave + offset))
            del futures, got
            rss.append(rss_mb())
        return {"exact": exact, "rss_per_wave": rss}

    def snapshot(self) -> Dict[str, Any]:
        rt = self.rt
        snap = {
            "dispatch": rt.dispatcher.stats.snapshot(),
            "freed": rt.graph.freed_tasks,
            "live": rt.graph.n_tasks,
            "resilience": rt.resilience.counts(),
            "integrity": rt.integrity.stats() if rt.integrity else {},
        }
        if self.inputs["executor"] == "simulated":
            snap["makespan"] = rt.virtual_time
            snap["events"] = rt.executor.sim.processed_events
        return snap

    def stop(self) -> None:
        self.rt.stop()

    def check(self, out, snap, ref) -> List[str]:
        inp = self.inputs
        n = inp["units"]
        errors = []
        if not out["exact"]:
            errors.append("results != [x + 1]")
        if inp["executor"] == "simulated":
            if snap["dispatch"]["placed"] != n:
                errors.append(f"placed {snap['dispatch']['placed']} != {n}")
            per_wave = n // inp["waves"]
            rounds = -(-per_wave // inp["cores"]) * inp["waves"]
            want = rounds * spec.SIM_TASK_VIRTUAL_S
            if abs(snap["makespan"] - want) > 1e-6 * want:
                errors.append(f"virtual makespan {snap['makespan']} != {want}")
        if inp["stream"]:
            if snap["freed"] != n or snap["live"] != 0:
                errors.append(
                    f"freed {snap['freed']}/{n}, {snap['live']} live tasks"
                )
        if inp["journal"]:
            # The replay is the expensive part; its record and byte counts
            # are kept in ``snap`` for layer_metrics, which runs next.
            path = self.workdir / "ckpt" / ckpt.JOURNAL_FILE
            records, truncated = ckpt.WriteAheadJournal.replay(path)
            done = sum(1 for r in records if r["rec"] == ckpt.COMPLETED)
            snap["journal_records"] = len(records)
            snap["journal_bytes"] = path.stat().st_size
            if truncated or done != n:
                errors.append(f"journal replay: {done} completions != {n}")
        if snap["resilience"].get("worker_crash", 0):
            errors.append(f"worker crashes: {snap['resilience']}")
        return errors

    def untraced_layers(self, out) -> Dict[str, float]:
        rss = out["rss_per_wave"]
        if not self.inputs["stream"]:
            return {}
        tasks_after_first_wave = (len(rss) - 1) * (self.inputs["units"] // len(rss))
        return {
            "graph.rss_growth_mb_per_100k":
                (rss[-1] - rss[0]) / (tasks_after_first_wave / 1e5),
        }

    def layer_metrics(self, spans, snap, out, ref, wall_s) -> Dict[str, float]:
        n = self.inputs["units"]
        m = common_layer_metrics(spans, snap["dispatch"], n, wall_s)
        m["graph.freed_fraction"] = snap["freed"] / n
        if "events" in snap:
            m["simexec.self_us_per_task"] = _per(
                _span(spans, "runtime.wait_on", "self_s"), n)
            m["simcluster.events_processed"] = snap["events"]
            m["simcluster.step_batch_us_per_event"] = _per(
                _span(spans, "simcluster.step_batch", "self_s"),
                snap["events"])
        if self.inputs["journal"]:
            m["journal.records"] = snap["journal_records"]
            m["journal.bytes_per_task"] = snap["journal_bytes"] / n
        if self.inputs["backend"] == "workers" and "events" not in snap:
            m["workers.spawn_s"] = m["runtime.start_s"]
            m["workers.crashes"] = snap["resilience"].get("worker_crash", 0)
        if snap["integrity"]:
            m["integrity.seal_us_per_task"] = _per(
                _span(spans, "integrity.seal_local", "total_s"), n)
            m["integrity.verify_us_per_task"] = _per(
                _span(spans, "integrity.verify_writer", "total_s"), n)
            m["integrity.verified"] = snap["integrity"]["reads_verified"]
            m["integrity.repairs"] = (
                snap["integrity"]["replica_repairs"]
                + snap["integrity"]["recomputes"]
            )
        return m


def common_layer_metrics(spans, dispatch, n_tasks, wall_s) -> Dict[str, float]:
    """Layer metrics every runtime-backed workload shares."""
    s = functools.partial(_span, spans)

    submits = s("runtime.submit", "count")
    placed = dispatch.get("placed", 0)
    journal_s = (
        s("journal.key_for", "total_s") + s("journal.append", "total_s")
    )
    root = s(tracer.ROOT, "total_s")
    return {
        "runtime.submit_us_per_task": _per(s("runtime.submit", "total_s"), submits),
        "runtime.submit_self_us_per_task": _per(s("runtime.submit", "self_s"), submits),
        "runtime.complete_self_us_per_task": _per(
            s("runtime.complete_task", "self_s"), s("runtime.complete_task", "count")),
        "runtime.wait_on_s": s("runtime.wait_on", "total_s"),
        # Per session: a pre-populating set-up study starts a runtime too.
        "runtime.start_s": _per(
            s("runtime.start", "total_s"), s("runtime.start", "count"), 1.0),
        "runtime.stop_s": _per(
            s("runtime.stop", "total_s"), s("runtime.stop", "count"), 1.0),
        "api.task_call_self_us_per_task": _per(s(tracer.TASK_CALLS, "self_s"), submits),
        "access.process_access_us_per_task": _per(
            s("access.process_access", "total_s"), submits),
        "access.release_us_per_task": _per(
            s("access.release_task", "total_s"), s("access.release_task", "count")),
        "access.calls": s("access.process_access", "count"),
        "graph.add_task_us_per_task": _per(
            s("graph.add_task", "total_s"), s("graph.add_task", "count")),
        "graph.mark_done_us_per_task": _per(
            s("graph.mark_done", "total_s"), s("graph.mark_done", "count")),
        "dispatch.ingest_us_per_task": _per(
            s("dispatch.ingest", "total_s"), dispatch.get("ingested", 0)),
        "dispatch.drain_us_per_task": _per(
            s("dispatch.drain", "self_s") + s("dispatch.schedule_round", "self_s"),
            placed),
        "dispatch.rounds": dispatch.get("rounds", 0),
        "dispatch.avg_batch": placed / dispatch["rounds"] if dispatch.get("rounds") else 0.0,
        "dispatch.probes_per_task": (
            dispatch.get("placement_probes", 0) / placed if placed else 0.0),
        "resources.try_allocate_us_per_call": _per(
            s("resources.try_allocate", "total_s"), s("resources.try_allocate", "count")),
        "journal.key_for_us_per_task": _per(
            s("journal.key_for", "total_s"), s("journal.key_for", "count")),
        "journal.append_us_per_record": _per(
            s("journal.append", "total_s"), s("journal.append", "count")),
        "journal.close_s": s("journal.close", "total_s"),
        "journal.share_of_wall": journal_s / wall_s if wall_s else 0.0,
        "bench.trace_accounted_fraction": (
            1.0 - s(tracer.ROOT, "self_s") / root if root else 0.0),
    }


# ----------------------------------------------------------------------
# Real-training grid studies: grid27_train_{workers,threads}, reuse_*
# ----------------------------------------------------------------------
class GridStudy(Workload):
    def __init__(self, inputs, workdir, recorder) -> None:
        super().__init__(inputs, workdir, recorder)
        self.space = parse_search_space(inputs["space"])
        self.configs = get_algorithm("grid", self.space).ask(None)
        self.plan = (
            StagePlan(block_epochs=inputs["block_epochs"], objective="train")
            if inputs["staged"] else None
        )
        self.dataset_gen_s = 0.0

    def _dataset(self):
        c = self.configs[0]
        return cached_dataset(
            load_mnist_like, n_train=c["n_train"], n_test=c["n_test"],
            seed=c["data_seed"],
        )

    def warm(self) -> None:
        t0 = time.perf_counter()
        self._dataset()
        self.dataset_gen_s = time.perf_counter() - t0
        train_experiment(dict(self.configs[0], num_epochs=1, batch_size=128))

    def reference(self) -> Dict[str, Any]:
        """A plain serial ``train_experiment`` loop over the same configs."""
        self.warm()
        t0 = time.perf_counter()
        results = [train_experiment(c) for c in self.configs]
        serial_s = time.perf_counter() - t0
        accs = [r["val_accuracy"] for r in results]
        return {
            "val_accuracy": accs,
            "best_index": max(range(len(accs)), key=accs.__getitem__),
            "serial_s": serial_s,
            "body_s": [r["duration_s"] for r in results],
        }

    def break_reference(self, ref) -> None:
        ref["val_accuracy"][0] += 1.0

    def _config(self) -> RuntimeConfig:
        inp = self.inputs
        return RuntimeConfig(
            cluster=local_machine(2), backend=inp["backend"], tracing=False,
            graph=False, reuse_cache=inp["staged"],
            cache_dir=str(self.workdir / "cache") if inp["staged"] else None,
        )

    def _runner(self, name: str) -> PyCOMPSsRunner:
        return PyCOMPSsRunner(
            "grid", space=self.space, stage_plan=self.plan, study_name=name,
        )

    def start(self) -> None:
        self.populate_answers = None
        if self.inputs["prepopulate"]:
            # The warm workload's cache is filled by one cold study on
            # the same configuration, inside set-up.
            with COMPSsRuntime(self._config()):
                self.populate_answers = _answers(self._runner("populate").run())
        self.runners = [
            self._runner(f"study{i}") for i in range(self.inputs["studies"])
        ]
        self.rt = COMPSsRuntime(self._config()).start()

    def run(self) -> List[Any]:
        return [runner.run() for runner in self.runners]

    def snapshot(self) -> Dict[str, Any]:
        rt = self.rt
        stage_s, trained_epochs = 0.0, 0
        for t in rt.graph.tasks():
            if t.definition.name == "stage_train" and t.start_time is not None:
                stage_s += t.end_time - t.start_time
                trained_epochs += t.args[3] - t.args[2]
        return {
            "dispatch": rt.dispatcher.stats.snapshot(),
            "resilience": rt.resilience.counts(),
            "reuse": rt.reuse.stats() if rt.reuse is not None else {},
            "stage_body_s": stage_s,
            "trained_epochs": trained_epochs,
        }

    def stop(self) -> None:
        self.rt.stop()

    def check(self, studies, snap, ref) -> List[str]:
        errors = []
        answers = [_answers(s) for s in studies]
        if self.populate_answers is not None:
            answers.append(self.populate_answers)
        for got in answers:
            if got["completed"] != len(self.configs):
                errors.append(f"{got['completed']} of {len(self.configs)} completed")
            elif got["configs"] != self.configs:
                errors.append("trial configs differ from the grid")
            elif got["val_accuracy"] != ref["val_accuracy"]:
                errors.append("val_accuracy differs from the serial reference")
            elif got["best"] != self.configs[ref["best_index"]]:
                errors.append("best config differs from the serial reference")
        reuse = snap["reuse"]
        if reuse.get("unverified_hits", 0):
            errors.append(f"unverified cache hits: {reuse}")
        if self.inputs["prepopulate"] and reuse.get("misses", 0):
            errors.append(f"warm cache missed: {reuse}")
        if snap["resilience"].get("worker_crash", 0):
            errors.append(f"worker crashes: {snap['resilience']}")
        return errors

    def layer_metrics(self, spans, snap, studies, ref, wall_s) -> Dict[str, float]:
        inp = self.inputs
        trials = [t for s in studies for t in s.completed()]
        n_trials = len(trials)
        submits = _span(spans, "runtime.submit", "count")
        m = common_layer_metrics(spans, snap["dispatch"], submits, wall_s)
        body_s = (
            snap["stage_body_s"] if inp["staged"]
            else sum(t.result.duration_s for t in trials)
        )
        serial_body_s = sum(ref["body_s"])
        executor = "workers" if inp["backend"] == "workers" else "local"
        sample_epochs = sum(c["num_epochs"] * c["n_train"] for c in self.configs)
        m.update({
            f"{executor}.slot_busy_fraction": body_s / (2 * wall_s),
            "hpo.runner_self_s": _span(spans, "hpo.runner.run", "self_s"),
            "hpo.ask_us_per_trial": _per(
                _span(spans, "hpo.ask", "total_s"), n_trials),
            "hpo.serial_baseline_s": ref["serial_s"],
            "hpo.stage_tasks_per_trial": submits / n_trials if n_trials else 0.0,
            "ml.fit_s_total": body_s,
            "ml.samples_per_s": sample_epochs / ref["serial_s"],
            "ml.dataset_gen_s": self.dataset_gen_s,
        })
        if not inp["prepopulate"]:
            # Warm studies train nothing, so these ratios have no base there.
            m[f"{executor}.body_inflation"] = body_s / serial_body_s
            m["hpo.parallel_efficiency"] = ref["serial_s"] / (2 * wall_s)
        if inp["backend"] == "workers":
            m["workers.spawn_s"] = m["runtime.start_s"]
            m["workers.crashes"] = snap["resilience"].get("worker_crash", 0)
        reuse = snap["reuse"]
        if reuse:
            lookups = reuse["hits"] + reuse["misses"]
            # Each (everything-but-epochs) chain needs only its longest
            # epoch budget trained once; the rest is redundant.
            longest: Dict[tuple, int] = {}
            for c in self.configs:
                chain = tuple(sorted(
                    (k, v) for k, v in c.items() if k != "num_epochs"))
                longest[chain] = max(longest.get(chain, 0), c["num_epochs"])
            useful = sum(longest.values())
            m.update({
                "reuse.hit_ratio": reuse["hits"] / lookups if lookups else 0.0,
                "reuse.published": reuse["published"],
                "reuse.lease_waits": reuse["lease_waits"],
                "reuse.lease_timeouts": reuse["lease_timeouts"],
                "reuse.acquire_us_per_call": _per(
                    _span(spans, "reuse.acquire", "total_s"),
                    _span(spans, "reuse.acquire", "count")),
                "reuse.publish_ms_per_entry": _per(
                    _span(spans, "reuse.publish", "total_s"),
                    reuse["published"], 1e3),
                "reuse.verify_s": reuse["verify_time_s"],
                "reuse.bytes": reuse["bytes"],
                "reuse.trained_epochs": snap["trained_epochs"],
            })
            if snap["trained_epochs"]:
                m["reuse.redundant_epoch_fraction"] = (
                    1.0 - useful / snap["trained_epochs"])
        if not inp["staged"]:
            m.update(ml_microbench(self.configs[0], self._dataset()))
            m["simcluster.grid27_mn4_virtual_min"] = mn4_virtual_minutes()
        return m

    def check_layers(self, layers: Dict[str, float]) -> List[str]:
        got = layers.get("simcluster.grid27_mn4_virtual_min")
        if got is not None and abs(got / spec.MN4_VIRTUAL_MIN_BASE - 1.0) > 0.01:
            return [f"MN4 virtual minutes {got} not within 1% of "
                    f"{spec.MN4_VIRTUAL_MIN_BASE}"]
        return []


def _answers(study) -> Dict[str, Any]:
    done = study.completed()
    return {
        "completed": len(done),
        "configs": [t.config for t in study.trials],
        "val_accuracy": [t.val_accuracy for t in done],
        "best": study.best_trial().config if done else None,
    }


def ml_microbench(config, dataset) -> Dict[str, float]:
    """Time the ``ml`` layer's public calls directly (serial, this process)."""
    from repro.ml import create_model

    (x_train, y_train), (x_val, y_val) = dataset
    out: Dict[str, float] = {}
    t0 = time.perf_counter()
    for _ in range(5):
        model = create_model(config, input_shape=x_train.shape[1:], seed=0)
        model.build(x_train.shape[1:])
    out["ml.create_model_ms"] = (time.perf_counter() - t0) / 5 * 1e3
    for batch in (32, 64, 128):
        x, y = x_train[:batch], y_train[:batch]
        model.train_on_batch(x, y)
        steps = 100
        t0 = time.perf_counter()
        for _ in range(steps):
            model.train_on_batch(x, y)
        out[f"ml.train_on_batch_us_b{batch}"] = (
            (time.perf_counter() - t0) / steps * 1e6)
    t0 = time.perf_counter()
    for _ in range(5):
        model.evaluate(x_val, y_val)
    out["ml.evaluate_ms"] = (time.perf_counter() - t0) / 5 * 1e3
    return out


def mn4_virtual_minutes() -> float:
    """The paper's 27-config grid on simulated MareNostrum4 (1 node)."""
    from repro.hpo import GridSearch, paper_search_space
    from repro.pycompss_api.constraint import ResourceConstraint
    from repro.simcluster import mare_nostrum4

    rt = COMPSsRuntime(RuntimeConfig(
        cluster=mare_nostrum4(1), executor="simulated", execute_bodies=True,
        reserved_cores=24, tracing=False, graph=False,
    )).start()
    try:
        study = PyCOMPSsRunner(
            GridSearch(paper_search_space()), objective=fast_mock_objective,
            constraint=ResourceConstraint(cpu_units=1), study_name="mn4",
        ).run()
    finally:
        rt.stop(wait=False)
    return study.total_duration_s / 60.0


# ----------------------------------------------------------------------
# Multi-tenant daemon: service_8x27_mock
# ----------------------------------------------------------------------
def sleep_mock_objective(config):
    """Fixed GIL-free body: sleep ``body_s``, then the instant mock answer."""
    time.sleep(config["body_s"])
    return fast_mock_objective(config)


class ServiceStudies(Workload):
    def _space(self) -> Dict[str, Any]:
        return dict(self.inputs["space"], body_s=self.inputs["body_s"])

    def reference(self) -> Dict[str, Any]:
        """The solo-run answer: the mock objective over the grid, no daemon."""
        configs = get_algorithm("grid", parse_search_space(self._space())).ask(None)
        accs = [fast_mock_objective(c)["val_accuracy"] for c in configs]
        best = configs[max(range(len(accs)), key=accs.__getitem__)]
        return {"trials": len(configs), "best": best}

    def break_reference(self, ref) -> None:
        ref["best"] = dict(ref["best"], optimizer="none")

    def start(self) -> None:
        root = self.workdir / "service"
        self.service = HPOService(
            root,
            runtime_config=RuntimeConfig(
                cluster=local_machine(2), tracing=False, graph=False),
            admission=AdmissionConfig(max_concurrent_studies=4),
            heartbeat_s=10.0,
        )
        self.client = ServiceClient(root, poll_s=0.005)
        self.requests = [
            StudyRequest(
                study_id=sid, tenant=sid.split("-")[0], space=self._space(),
                objective=f"{__name__}:sleep_mock_objective",
            )
            for sid in self.inputs["order"]
        ]
        self.service.start()

    def run(self) -> Dict[str, Any]:
        submitted = {}
        for request in self.requests:
            submitted[request.study_id] = time.time()
            self.client.submit(request, wait_admission=False)
        self.service.run_until_idle(poll_s=0.005, max_wait_s=120)
        states = {sid: self.client.status(sid) for sid in submitted}
        return {"submitted": submitted, "states": states}

    def snapshot(self) -> Dict[str, Any]:
        paths = self.client.paths
        rt = self.service.runtime
        return {
            "dispatch": rt.dispatcher.stats.snapshot(),
            "admitted": {
                r.study_id: paths.request_file(r.study_id).stat().st_mtime
                for r in self.requests
            },
            "rejections": sorted(p.name for p in paths.rejections.glob("*")),
        }

    def stop(self) -> None:
        self.service.shutdown()

    def check(self, out, snap, ref) -> List[str]:
        errors = []
        for sid, state in out["states"].items():
            if state.get("status") != "completed":
                errors.append(f"{sid}: status {state.get('status')}")
            elif state.get("completed_trials") != ref["trials"]:
                errors.append(f"{sid}: {state.get('completed_trials')} trials")
            elif state["best"]["config"] != ref["best"]:
                errors.append(f"{sid}: best config differs from the solo run")
        if snap["rejections"]:
            errors.append(f"rejections: {snap['rejections']}")
        return errors

    def layer_metrics(self, spans, snap, out, ref, wall_s) -> Dict[str, float]:
        import statistics

        n = self.inputs["units"]
        m = common_layer_metrics(spans, snap["dispatch"], n, wall_s)
        submitted = out["submitted"]
        admit_ms = [
            (snap["admitted"][sid] - t) * 1e3 for sid, t in submitted.items()
        ]
        complete_s = [
            out["states"][sid]["updated_at"] - t for sid, t in submitted.items()
        ]
        quartiles = statistics.quantiles(complete_s, n=4)
        body_s = n * self.inputs["body_s"]
        m.update({
            "service.submit_to_admit_ms_p50": statistics.median(admit_ms),
            "service.submit_to_complete_s_p50": quartiles[1],
            "service.submit_to_complete_s_p75": quartiles[2],
            "service.overhead_s": wall_s - body_s / 2,
            "service.start_s": _span(spans, "service.start", "total_s"),
            "service.shutdown_s": _span(spans, "service.shutdown", "total_s"),
            "service.fairness_spread": (
                (max(complete_s) - min(complete_s)) / statistics.mean(complete_s)),
            "local.slot_busy_fraction": body_s / (2 * wall_s),
        })
        return m


KINDS = {"tiny": TinyTasks, "grid": GridStudy, "service": ServiceStudies}


def build(inputs: Dict[str, Any], workdir: Path, recorder=None) -> Workload:
    return KINDS[inputs["kind"]](
        inputs, workdir, recorder or tracer.NullRecorder())
