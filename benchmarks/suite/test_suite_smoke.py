"""Smoke test of the benchmark suite (``pytest benchmarks/suite -q``).

Not part of tier-1 ``testpaths``.  Runs every workload once at 1/50 size
(one untraced rep, one traced rep, side runs) and checks what the numbers
rest on: the output schema, every correctness check (including that a
deliberately wrong reference fails every unit), the trace file, the
``compare`` verdicts and the external driver's output line.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.suite import compare, harness, run, spec  # noqa: E402

NAMES = [w.name for w in spec.WORKLOADS]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite-out")
    return out, harness.run_all(NAMES, seed=7, seconds=0.0, out_dir=out, smoke=True)


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"]
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.DRIVER_WORKLOADS]
    assert doc["run_seconds"] == spec.DRIVER_RUN_SECONDS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.DRIVER_PER_LAYER]
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


def test_inputs_depend_only_on_seed():
    for name in NAMES:
        assert spec.make_inputs(name, 3) == spec.make_inputs(name, 3)
        assert spec.make_inputs(name, 3) != spec.make_inputs(name, 4)


def test_schema_and_correctness(smoke):
    out, result = smoke
    assert set(result["envelope"]) >= {
        "git_sha", "git_dirty", "host", "nproc", "python", "numpy", "blas",
        "thread_pins", "seed", "utc"}
    assert list(result["workloads"]) == NAMES
    for name, rec in result["workloads"].items():
        assert rec["errors"] == [], (name, rec["errors"])
        assert rec["failed_fraction"] == 0.0
        assert rec["attempted"] >= rec["inputs"]["units"] * 2
        assert set(rec["end_to_end"]) == {m.name for m in spec.END_TO_END}
        for metric, q in rec["end_to_end"].items():
            assert q["n"] == len(q["values"]) >= 1
            assert q["q1"] <= q["median"] <= q["q3"]
            assert q["median"] > 0, (name, metric)
        assert list(rec["per_layer"]) == [m.name for m in spec.PER_LAYER]
        assert "bench.trace_overhead_pct" in rec["per_layer"]
    snapshots = list(out.glob("bench-*.json"))
    assert len(snapshots) == 1
    assert json.loads(snapshots[0].read_text())["workloads"].keys() == result["workloads"].keys()
    assert len((out / "history.jsonl").read_text().splitlines()) == 1


def test_every_layer_metric_is_measured_somewhere(smoke):
    _, result = smoke
    driver_names = {w.name for w in spec.DRIVER_WORKLOADS}
    for m in spec.PER_LAYER:
        values = [rec["per_layer"][m.name] for rec in result["workloads"].values()]
        driver_values = [
            rec["per_layer"][m.name] for name, rec in result["workloads"].items()
            if name in driver_names]
        zero_is_healthy = m.name in {
            "integrity.repairs", "workers.crashes", "reuse.lease_waits",
            "reuse.lease_timeouts"}
        assert zero_is_healthy or any(values), m.name
        # BENCHMARK.json lists exactly what its own workloads produce.
        if m in spec.DRIVER_PER_LAYER:
            assert zero_is_healthy or any(driver_values), m.name
        else:
            assert not any(driver_values), m.name


def test_exact_counts(smoke):
    _, result = smoke
    layers = {n: r["per_layer"] for n, r in result["workloads"].items()}
    stream = result["workloads"]["stream_75k_journal_sim"]
    n = stream["inputs"]["units"]
    assert layers["stream_75k_journal_sim"]["graph.freed_fraction"] == 1.0
    # submitted + started + completed per task, plus the session record
    assert layers["stream_75k_journal_sim"]["journal.records"] == 3 * n + 1
    assert layers["dispatch_100k_sim"]["journal.records"] == 0
    assert layers["dispatch_100k_sim"]["dispatch.probes_per_task"] < 1.01
    assert layers["reuse_cold_grid27"]["reuse.trained_epochs"] == 216
    assert layers["reuse_cold_grid27"]["reuse.published"] == 55
    assert layers["reuse_warm_grid27"]["reuse.hit_ratio"] == 1.0
    assert layers["reuse_warm_grid27"]["reuse.trained_epochs"] == 0
    for name in ("grid27_train_workers", "grid27_train_threads"):
        got = layers[name]["simcluster.grid27_mn4_virtual_min"]
        assert got == pytest.approx(spec.MN4_VIRTUAL_MIN_BASE, rel=0.01)


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_fails_every_unit(name):
    rec = harness.run_workload(
        name, seed=7, seconds=0.0, traced=False, smoke=True, break_reference=True)
    assert rec["failed_fraction"] == 1.0
    assert rec["errors"]


@pytest.mark.parametrize("name", ["dispatch_100k_sim", "reuse_cold_grid27", "service_8x27_mock"])
def test_trace_file(smoke, name):
    out, result = smoke
    spans = defaultdict(dict)
    for line in (out / f"trace-{name}.jsonl").read_text().splitlines():
        span = json.loads(line)
        assert span["run"] == f"{name}:7"
        assert span["end"] >= span["start"]
        spans[span["thread"]][span["i"]] = span
    roots = [s for t in spans.values() for s in t.values()
             if s["name"] == "bench.timed_region"]
    assert len(roots) == 1
    root = roots[0]
    thread = spans[root["thread"]]
    child_time = defaultdict(float)
    for s in thread.values():
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def under_root(s):
        while s["parent"] is not None:
            s = thread[s["parent"]]
        return s is root

    self_total = 0.0
    for i, s in thread.items():
        self_s = (s["end"] - s["start"]) - child_time[i]
        assert self_s >= -1e-6, s
        if under_root(s):
            self_total += self_s
    assert self_total <= (root["end"] - root["start"]) * (1 + 1e-6)
    summary = result["workloads"][name]["spans"]
    assert summary["bench.timed_region"]["count"] == 1
    for stats in summary.values():
        assert -1e-6 <= stats["self_s"] <= stats["total_s"] + 1e-6


def test_compare_verdicts(smoke, tmp_path, capsys):
    _, result = smoke
    same = copy.deepcopy(result)
    worse = copy.deepcopy(result)
    wall = worse["workloads"]["dispatch_100k_sim"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 1.5
    wall["values"] = [v * 1.5 for v in wall["values"]]
    worse["workloads"]["service_8x27_mock"]["failed_fraction"] = 0.5
    noisy = copy.deepcopy(result)
    cpu = noisy["workloads"]["dispatch_100k_sim"]["end_to_end"]["cpu_s"]
    cpu["q1"], cpu["q3"] = cpu["median"] * 0.5, cpu["median"] * 1.5
    cpu["values"] = [cpu["q1"], cpu["median"], cpu["q3"]]
    paths = {}
    for label, doc in (("a", result), ("same", same), ("worse", worse), ("noisy", noisy)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(doc))

    assert compare.main(str(paths["a"]), str(paths["same"])) == 0
    assert compare.main(str(paths["a"]), str(paths["worse"])) == 1
    rows = compare.compare(result, worse)
    verdict = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdict[("dispatch_100k_sim", "wall_s")] == "worse"
    assert verdict[("service_8x27_mock", "failed_fraction")] == "worse"
    assert verdict[("grid27_train_workers", "wall_s")] == "ok"
    assert len(rows) == len(NAMES) * (len(spec.END_TO_END) + 1)
    assert compare.main(str(paths["a"]), str(paths["noisy"])) == 0
    noisy_rows = compare.compare(result, noisy)
    assert {r["verdict"] for r in noisy_rows
            if (r["workload"], r["metric"]) == ("dispatch_100k_sim", "cpu_s")} == {"unresolved"}
    capsys.readouterr()


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_output_line(monkeypatch, capsys, trace):
    monkeypatch.setattr(
        run.harness, "run_workload",
        functools.partial(harness.run_workload, smoke=True))
    assert run.main([
        "--workload", "dispatch_100k_sim", "--seed", "5", "--seconds", "1",
        "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = spec.DRIVER_PER_LAYER if trace else spec.END_TO_END
    assert list(last["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        assert last["metrics"][m.name]["unit"] == m.unit
        assert isinstance(last["metrics"][m.name]["value"], float)
