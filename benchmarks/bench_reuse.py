"""Cross-trial reuse benchmark (redundant epochs, speedup, verify cost).

Three questions, all from the stage-cache tentpole:

1. **How much redundant work does prefix reuse eliminate?**  The same
   staged grid — 3 optimizers x ``num_epochs`` {4, 8, 12} — runs with
   reuse off and on, every trial submitted at once as in the paper.
   Stages count every epoch they actually train
   (:func:`repro.hpo.stages.executed_epochs`); with reuse on the runtime
   joins identical stages at submit, so a shared block is one task and
   the on/off delta is exactly the redundant work: 72 epochs monolithic
   vs 36 in the stage tree (each optimizer's 4- and 8-epoch trials ride
   the 12-epoch chain), a 50 % reduction.
2. **Does that translate to wall clock?**  ``epoch_sleep_s`` charges a
   real per-epoch cost, so the sleep-dominated makespan ratio tracks
   the epoch reduction and is stable on shared runners.
3. **What does hit-time verification cost?**  Every disk hit re-hashes
   the entry against its ``.sum`` sidecar before trusting it; the cache
   accounts that wall time (``verify_time_s``).  The cold study has
   nothing on disk to hit, so a second study over the same cache
   directory — which resolves every distinct stage from disk and trains
   nothing — supplies the number: the cost of verifying every entry
   the cold study published, as a percentage of the cold study's wall,
   bounded by ``reuse_overhead_pct_max``.

Two entry points:

* ``pytest benchmarks/bench_reuse.py`` — CI perf-smoke mode.  One
  seed; fails if either reuse-on study diverges from the cache-off
  answer, if the epoch reduction drops below
  ``reuse_epoch_reduction_min``, if the speedup drops below
  ``reuse_speedup_min``, if verify overhead exceeds
  ``reuse_overhead_pct_max``, or if any hit was returned unverified
  (must be exactly zero).
* ``python benchmarks/bench_reuse.py`` — full run (three seeds) that
  writes the machine-readable ``BENCH_reuse.json`` to the repo root.
"""

import json
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from conftest import banner

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.stages import StagePlan, executed_epochs, reset_epoch_counter
from repro.runtime.config import RuntimeConfig
from repro.simcluster.machines import local_machine

REPO_ROOT = Path(__file__).resolve().parent.parent
THRESHOLDS_PATH = Path(__file__).resolve().parent / "perf_thresholds.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_reuse.json"

SEEDS = (11, 23, 37)
WORKERS = 4
BLOCK_EPOCHS = 4
EPOCH_SLEEP_S = 0.01


def load_thresholds() -> dict:
    with open(THRESHOLDS_PATH) as fh:
        return json.load(fh)


def prefix_redundant_space():
    """The paper-style grid whose epoch axis makes trials share prefixes."""
    return parse_search_space(
        {
            "optimizer": ["Adam", "SGD", "RMSprop"],
            "num_epochs": [4, 8, 12],
            "epoch_sleep_s": [EPOCH_SLEEP_S],
        }
    )


def run_grid(root: Path, reuse: bool) -> dict:
    reset_epoch_counter()
    runner = PyCOMPSsRunner(
        "grid",
        space=prefix_redundant_space(),
        study_name="reuse-grid",
        stage_plan=StagePlan(block_epochs=BLOCK_EPOCHS),
        runtime_config=RuntimeConfig(
            cluster=local_machine(WORKERS),
            reuse_cache=reuse,
            cache_dir=str(root / "cache") if reuse else None,
        ),
    )
    t0 = time.perf_counter()
    study = runner.run()
    elapsed = time.perf_counter() - t0
    epochs = executed_epochs()
    reset_epoch_counter()
    return {
        "wall_s": round(elapsed, 3),
        "epochs_trained": epochs,
        "n_complete": len(study.completed()),
        "best_config": study.best_trial().config,
        "best_val_accuracy": study.best_trial().val_accuracy,
        "accuracies": {
            t.trial_id: t.val_accuracy for t in study.completed()
        },
        "reuse": study.metadata.get("reuse", {}),
    }


def compare(seed: int) -> dict:
    # The grid is deterministic — seed only varies the tmp dirs — but
    # running it per seed gives the full report a jitter estimate.
    with TemporaryDirectory(prefix=f"reuse-off-{seed}-") as off_dir:
        off = run_grid(Path(off_dir), reuse=False)
    with TemporaryDirectory(prefix=f"reuse-on-{seed}-") as on_dir:
        on = run_grid(Path(on_dir), reuse=True)
        warm = run_grid(Path(on_dir), reuse=True)
    reduction = 1.0 - on["epochs_trained"] / max(1, off["epochs_trained"])
    verify_s = warm["reuse"].get("verify_time_s", 0.0)
    return {
        "seed": seed,
        "cache_off": off,
        "cache_on": on,
        "cache_warm": warm,
        "same_best": all(
            r["best_config"] == off["best_config"]
            and r["best_val_accuracy"] == off["best_val_accuracy"]
            for r in (on, warm)
        ),
        "same_accuracies": all(
            r["accuracies"] == off["accuracies"] for r in (on, warm)
        ),
        "epoch_reduction": round(reduction, 3),
        "speedup": round(off["wall_s"] / max(1e-9, on["wall_s"]), 3),
        "hit_verify_overhead_pct": round(
            100.0 * verify_s / max(1e-9, on["wall_s"]), 3
        ),
    }


def report(data: dict) -> None:
    banner(f"Cross-trial reuse — seed {data['seed']}")
    print(
        f"        cache off: {data['cache_off']['wall_s']:.3f} s, "
        f"{data['cache_off']['epochs_trained']} epochs trained"
    )
    for title, run in (("cache on", data["cache_on"]),
                       ("warm rerun", data["cache_warm"])):
        stats = run["reuse"]
        print(
            f"  {title:>15}: {run['wall_s']:.3f} s, "
            f"{run['epochs_trained']} epochs trained  "
            f"({stats.get('misses', 0)} computed / "
            f"{stats.get('joined', 0)} joined / "
            f"{stats.get('hits', 0)} disk hits)"
        )
    print(
        f"  epoch reduction: {100 * data['epoch_reduction']:.0f}%   "
        f"speedup: x{data['speedup']}   "
        f"hit-verify overhead: {data['hit_verify_overhead_pct']:.2f}% "
        f"of cached wall"
    )


def test_reuse_smoke():
    """CI perf-smoke: same answer, >=30% fewer epochs, bounded verify."""
    thresholds = load_thresholds()
    data = compare(SEEDS[0])
    report(data)
    assert data["same_best"], data
    assert data["same_accuracies"], data
    on, warm = data["cache_on"], data["cache_warm"]
    for run in (on, warm):
        assert run["reuse"]["unverified_hits"] == 0, run["reuse"]
    assert warm["epochs_trained"] == 0 and warm["reuse"]["misses"] == 0, warm
    assert (
        data["epoch_reduction"] >= thresholds["reuse_epoch_reduction_min"]
    ), data
    assert data["speedup"] >= thresholds["reuse_speedup_min"], data
    assert (
        data["hit_verify_overhead_pct"]
        <= thresholds["reuse_overhead_pct_max"]
    ), data


def main() -> None:
    results = []
    for seed in SEEDS:
        data = compare(seed)
        report(data)
        results.append(data)
    summary = {
        "benchmark": "cross_trial_reuse",
        "workload": (
            f"staged grid: 3 optimizers x num_epochs (4, 8, 12), "
            f"block_epochs={BLOCK_EPOCHS}, epoch_sleep_s={EPOCH_SLEEP_S}, "
            f"all trials submitted at once on local_machine({WORKERS}); "
            f"cache off vs on vs a second study over the same cache"
        ),
        "runs": results,
        "worst_epoch_reduction": min(r["epoch_reduction"] for r in results),
        "worst_speedup": min(r["speedup"] for r in results),
        "worst_hit_verify_overhead_pct": max(
            r["hit_verify_overhead_pct"] for r in results
        ),
        "total_unverified_hits": sum(
            r[run]["reuse"].get("unverified_hits", 0)
            for r in results for run in ("cache_on", "cache_warm")
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")


if __name__ == "__main__":
    main()
