"""Wall-clock and memory gates that no ``benchmarks/suite`` metric covers.

Each gate is a test; each bound is a module constant beside its test,
commented with the measurement it came from (EXPERIMENTS.md, "Perf
smoke").  Everything deterministic — virtual times, exact counts — lives
in tier-1 instead, and the runtime's per-task overheads are measured by
the suite.

Run it with the BLAS pool pinned, as the suite pins its subprocesses::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/perf_smoke.py -q -s

``run_stream`` is a plain function, so the million-task run is
``run_stream(1_000_000)`` from a Python prompt (with ``benchmarks`` on
``sys.path``).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import banner

from repro.hpo import PyCOMPSsRunner, parse_search_space
from repro.hpo.objective import preemptible_mock_objective
from repro.ml import Conv2D, create_model
from repro.ml.datasets import load_cifar_like, load_mnist_like
from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.simcluster import local_machine

WAVE = 50_000


@task(returns=int)
def tiny(x):
    return x + 1


def rss_mb() -> float:
    """Current resident set size in MiB (Linux /proc; 0.0 elsewhere)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Streaming memory: completed tasks are freed, the journal is buffered
# ----------------------------------------------------------------------
def run_stream(n_tasks: int) -> dict:
    """Push ``n_tasks`` tiny tasks through a streaming, journaled session
    in waves of ``WAVE``; sample RSS after every wave.

    ``rss_growth_mb`` runs from after the first wave (which pays one-off
    costs: code objects, allocator pools, the journal file) to the end:
    that slope must stay flat.  ``live_kb_per_task`` is the growth over
    the first wave per task of it, sampled once that wave has been
    awaited and freed: it is what a freed wave leaves resident (retained
    objects and the allocator arenas they pin), not the wave's live
    state, whose bytes ``tests/test_task_footprint.py`` pins.  The
    journal goes to a temporary directory, removed on return.
    """
    with tempfile.TemporaryDirectory() as journal_dir:
        cfg = RuntimeConfig(
            cluster=local_machine(16),
            executor="simulated",
            tracing=False,
            graph=False,
            stream_completed=True,
            checkpoint_dir=journal_dir,
            checkpoint_every=None,
            journal_fsync="off",
            duration_fn=lambda t, scale, alloc: 1.0,
        )
        rss_per_wave = []
        start = time.perf_counter()
        with COMPSs(cfg) as rt:
            rss_before = rss_mb()
            done = 0
            while done < n_tasks:
                wave = min(WAVE, n_tasks - done)
                compss_wait_on([tiny(i) for i in range(done, done + wave)])
                done += wave
                if not rss_per_wave:
                    live_kb = (rss_mb() - rss_before) * 1024.0 / wave
                rss_per_wave.append(rss_mb())
            elapsed = time.perf_counter() - start
            freed = rt.graph.freed_tasks
    return {
        "n_tasks": n_tasks,
        "tasks_per_s": round(n_tasks / elapsed),
        "freed_fraction": freed / n_tasks,
        "live_kb_per_task": round(live_kb, 3),
        "rss_growth_mb": round(rss_per_wave[-1] - rss_per_wave[0], 1),
        "rss_per_wave_mb": [round(r, 1) for r in rss_per_wave],
    }


#: 12.4-14.3 MiB measured over waves 2-4 of 200k tasks; x1.96, so ~95 B
#: of new resident memory per task fails.
STREAM_RSS_GROWTH_MB_MAX = 28.0
#: 0.335-0.355 KiB measured; x1.97.  Two int objects left per freed task
#: (a keyer slot, a sync-point task id) pin their arenas: 0.85 KiB.
STREAM_LIVE_KB_PER_TASK_MAX = 0.70
#: 1.0 measured: every task of every wave is freed.
STREAM_FREED_FRACTION_MIN = 0.99


def test_stream_memory_stays_flat():
    data = run_stream(200_000)
    banner("Streaming graph + buffered journal — memory")
    print(data)
    assert data["freed_fraction"] >= STREAM_FREED_FRACTION_MIN, data
    assert data["rss_growth_mb"] < STREAM_RSS_GROWTH_MB_MAX, data
    assert data["live_kb_per_task"] < STREAM_LIVE_KB_PER_TASK_MAX, data


# ----------------------------------------------------------------------
# ML step throughput (the training tasks inside every HPO figure)
# ----------------------------------------------------------------------
def best_samples_per_s(model, x, y, repeats=3):
    """Best of ``repeats`` one-epoch fits (batch 64, Adam, no shuffle)."""
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.fit(x, y, epochs=1, batch_size=64, shuffle=False)
        best = max(best, x.shape[0] / (time.perf_counter() - t0))
    return best


#: 152k-228k samples/s measured for the MLP (10x10x1 images); x1.5.
ML_MLP_SAMPLES_PER_S_MIN = 100_000.0
#: 4.6k-6.5k samples/s measured for the CNN (12x12x3 images); x1.3.
ML_CNN_SAMPLES_PER_S_MIN = 3_500.0


def test_training_throughput():
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # Unpinned, the CNN's small GEMMs spend their time in BLAS thread
        # hand-offs (x7 slower on 2 cores) and the number is not the step's.
        pytest.skip("floors hold for OPENBLAS_NUM_THREADS=1, as the suite pins it")
    (x, y), _ = load_mnist_like(n_train=512, n_test=10)
    mlp = create_model({"optimizer": "Adam"}, input_shape=x.shape[1:])
    (xc, yc), _ = load_cifar_like(n_train=256, n_test=10)
    cnn = create_model({"optimizer": "Adam"}, input_shape=xc.shape[1:])
    mlp_sps = best_samples_per_s(mlp, x, y)
    cnn_sps = best_samples_per_s(cnn, xc, yc)
    banner("Training throughput of the numpy framework")
    print(f"MLP (10x10x1): {mlp_sps:9.0f} samples/s")
    print(f"CNN (12x12x3): {cnn_sps:9.0f} samples/s")
    assert mlp_sps > ML_MLP_SAMPLES_PER_S_MIN
    assert cnn_sps > ML_CNN_SAMPLES_PER_S_MIN


def naive_conv_forward(x, w, b):
    """Reference convolution: explicit loops over every output position."""
    n, h, wd, _ = x.shape
    kh, kw, _, f = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((n, oh, ow, f))
    for img in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = x[img, i : i + kh, j : j + kw, :]
                out[img, i, j] = (patch[..., None] * w).sum(axis=(0, 1, 2)) + b
    return out


def best_of_three(fn):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: x75-x120 measured (naive loops / im2col+GEMM, best of three each); x1.9.
IM2COL_SPEEDUP_MIN = 40.0


def test_im2col_matches_and_beats_naive():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 12, 12, 3))
    layer = Conv2D(8, kernel_size=3, padding="valid")
    layer.build(x.shape[1:], rng)
    w, b = layer.params["W"], layer.params["b"]
    np.testing.assert_allclose(
        layer.forward(x), naive_conv_forward(x, w, b), atol=1e-10
    )
    naive_s = best_of_three(lambda: naive_conv_forward(x, w, b))
    fast_s = best_of_three(lambda: layer.forward(x))
    speedup = naive_s / fast_s
    banner("im2col convolution vs naive loops")
    print(
        f"naive {naive_s * 1e3:.1f} ms, im2col {fast_s * 1e3:.2f} ms: "
        f"x{speedup:.0f}"
    )
    assert speedup > IM2COL_SPEEDUP_MIN


# ----------------------------------------------------------------------
# Barrier-free promotion: AsyncASHA vs synchronous successive halving
# ----------------------------------------------------------------------
def straggler_space():
    """One in four configs trains ~10x slower — the rung-barrier poison."""
    return parse_search_space(
        {
            "optimizer": ["Adam", "SGD", "RMSprop"],
            "learning_rate": [0.1, 0.01, 0.001],
            "epoch_sleep_s": [0.003, 0.004, 0.005, 0.04],
        }
    )


def ladder_makespan(algo: str, seed: int) -> float:
    """Wall seconds of a 9-config, 2/6/18-epoch, eta=3 bracket on 4 slots."""
    kwargs = dict(min_epochs=2, max_epochs=18, eta=3, seed=seed)
    kwargs["n_trials" if algo == "asha" else "n_configs"] = 9
    with tempfile.TemporaryDirectory() as root:
        runner = PyCOMPSsRunner(
            algo,
            space=straggler_space(),
            objective=preemptible_mock_objective,
            study_name=f"{algo}-{seed}",
            algorithm_kwargs=kwargs,
            runtime_config=RuntimeConfig(
                cluster=local_machine(4), checkpoint_dir=Path(root) / "ckpt"
            ),
        )
        t0 = time.perf_counter()
        study = runner.run()
        elapsed = time.perf_counter() - t0
    if algo == "asha":
        assert study.metadata["preemption"]["rung_promotions"] > 0
    return elapsed


#: x0.68-x0.81 measured with seed 11; x1.17, and above 1.0 the barrier wins.
ASYNC_MAKESPAN_RATIO_MAX = 0.95


def test_async_asha_beats_the_rung_barrier():
    sync = ladder_makespan("successive_halving", 11)
    asha = ladder_makespan("asha", 11)
    banner("AsyncASHA vs synchronous halving — straggler ladder")
    print(f"sync {sync:.3f} s, async {asha:.3f} s: x{asha / sync:.3f}")
    assert asha / sync <= ASYNC_MAKESPAN_RATIO_MAX
