"""Bit-identity of the arena training step.

``Sequential`` keeps every parameter in one flat array and steps the
optimiser once per batch over it.  That is only an optimisation if no
float moves: this file checks it mechanically, four ways.

* against :func:`reference_step`, the per-parameter step written out
  straight-line (fresh gradient arrays, full back-propagation, softmax
  evaluated once for the loss and once for its gradient, one optimiser
  update per parameter array);
* against sha256 digests of whole training histories and of a captured
  training state, recorded at the commit before the arena existed;
* across the suspend/resume boundary, whose wire layout stays
  per-parameter;
* through every public way of writing weights.
"""

import copy
import hashlib
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.hpo import PyCOMPSsRunner, SearchSpace
from repro.hpo.objective import train_experiment
from repro.hpo.stages import StagePlan
from repro.ml import (
    SGD,
    Adam,
    BatchNorm,
    Conv2D,
    Dense,
    RMSprop,
    create_model,
    load_weights,
    save_weights,
)
from repro.ml.datasets import load_cifar_like, load_mnist_like
from repro.ml.layers.conv import im2col
from repro.runtime.config import RuntimeConfig
from repro.runtime.preemption import PREEMPT_CONFIG_KEY, PreemptContext
from repro.simcluster import local_machine


# ----------------------------------------------------------------------
# (a) The reference: one per-parameter step, no arena, nothing shared
# ----------------------------------------------------------------------
def reference_update(opt, p, g, slots, t):
    lr = opt.learning_rate
    if isinstance(opt, SGD):
        if opt.momentum == 0.0:
            p -= lr * g
            return
        v = slots.setdefault("velocity", np.zeros_like(p))
        v *= opt.momentum
        v -= lr * g
        p += (opt.momentum * v - lr * g) if opt.nesterov else v
    elif isinstance(opt, RMSprop):
        s = slots.setdefault("s", np.zeros_like(p))
        s *= opt.rho
        s += (1.0 - opt.rho) * (g * g)
        p -= lr * g / (np.sqrt(s) + opt.epsilon)
    else:
        m = slots.setdefault("m", np.zeros_like(p))
        v = slots.setdefault("v", np.zeros_like(p))
        m *= opt.beta_1
        m += (1.0 - opt.beta_1) * g
        v *= opt.beta_2
        v += (1.0 - opt.beta_2) * (g * g)
        m_hat = m / (1.0 - opt.beta_1**t)
        v_hat = v / (1.0 - opt.beta_2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)


def reference_step(model, opt, slots, t, x, y):
    """Step ``model``'s layers the pre-arena way; returns the batch logs.

    Only ``layer.forward`` and the *returned* input gradient of
    ``layer.backward`` are taken from the layers; parameter gradients
    are recomputed here into fresh arrays and ``model.optimizer`` is
    never touched (``slots`` holds the per-parameter state, keyed by the
    qualified parameter name).
    """
    inputs, out = [], x
    for layer in model.layers:
        inputs.append(out)
        out = layer.forward(out, training=True)
    n = y.shape[0]
    shifted = out - out.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = float(-(y * log_probs).sum() / n)
    e = np.exp(out - out.max(axis=-1, keepdims=True))
    g = (e / e.sum(axis=-1, keepdims=True) - y) / n
    grads = {}
    for i in reversed(range(len(model.layers))):
        layer, a = model.layers[i], inputs[i]
        if isinstance(layer, Dense):
            grads[i] = {"W": a.T @ g, "b": g.sum(axis=0)}
        elif isinstance(layer, Conv2D):
            cols, _ = im2col(a, *layer.kernel_size, layer.strides, layer._pad)
            g2 = g.reshape(-1, layer.filters)
            grads[i] = {
                "W": (cols.T @ g2).reshape(layer.params["W"].shape),
                "b": g2.sum(axis=0),
            }
        elif isinstance(layer, BatchNorm):
            axes = tuple(range(a.ndim - 1))
            inv_std = 1.0 / np.sqrt(a.var(axis=axes) + layer.epsilon)
            x_hat = (a - a.mean(axis=axes)) * inv_std
            grads[i] = {"gamma": (g * x_hat).sum(axis=axes), "beta": g.sum(axis=axes)}
        g = layer.backward(g)
    for i, layer in enumerate(model.layers):
        for key, p in layer.params.items():
            name = f"{i}:{layer.name}/{key}"
            reference_update(opt, p, grads[i][key], slots.setdefault(name, {}), t)
    return {"loss": loss, "accuracy": float(np.mean(y.argmax(-1) == out.argmax(-1)))}


OPTIMIZERS = {
    "sgd": lambda: SGD(0.05),
    "momentum": lambda: SGD(0.05, momentum=0.9),
    "nesterov": lambda: SGD(0.05, momentum=0.9, nesterov=True),
    "rmsprop": lambda: RMSprop(0.002),
    "adam": lambda: Adam(0.003),
}
ARCHITECTURES = {
    "mlp": ({}, load_mnist_like, 32),
    "mlp_dropout": ({"dropout": 0.3}, load_mnist_like, 32),
    "cnn": ({"dropout": 0.2}, load_cifar_like, 16),
    "cnn_batch_norm": ({"batch_norm": True}, load_cifar_like, 16),
}


def make_model(arch, optimizer):
    config, loader, batch = ARCHITECTURES[arch]
    (x, y), _ = loader(n_train=8 * batch, n_test=10, seed=5)
    model = create_model(config, input_shape=x.shape[1:], seed=11)
    model.compile(optimizer=optimizer, loss="categorical_crossentropy")
    batches = [
        (x[i : i + batch], y[i : i + batch]) for i in range(0, x.shape[0], batch)
    ]
    return model, batches


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_model(model, ref, slots):
    for got, layer in zip(model.get_weights(), ref.layers):
        assert got.keys() == layer.params.keys()
        for key, value in got.items():
            assert same_bytes(value, layer.params[key]), (layer.name, key)
    state = model.capture_training_state(0)["optimizer_state"]
    assert list(state) == list(slots)
    for name, got in state.items():
        assert got.keys() == slots[name].keys()
        for slot, value in got.items():
            assert same_bytes(value, slots[name][slot]), (name, slot)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("opt", OPTIMIZERS)
def test_fifty_steps_equal_the_per_parameter_reference(arch, opt):
    model, batches = make_model(arch, OPTIMIZERS[opt]())
    ref, _ = make_model(arch, OPTIMIZERS[opt]())
    slots = {}
    for t in range(1, 51):
        x, y = batches[t % len(batches)]
        assert model.train_on_batch(x, y) == reference_step(
            ref, ref.optimizer, slots, t, x, y
        ), f"step {t}"
    assert model.optimizer.iterations == 50
    assert_same_model(model, ref, slots)
    for layer, ref_layer in zip(model.layers, ref.layers):
        for key, value in layer.buffers.items():
            assert same_bytes(value, ref_layer.buffers[key])


# ----------------------------------------------------------------------
# (b) Digests recorded at the parent commit (c18b5e5, before the arena)
# ----------------------------------------------------------------------
def digest(obj):
    """sha256 of a JSON-able structure; arrays enter as their bytes."""

    def plain(o):
        if isinstance(o, np.ndarray):
            return [str(o.dtype), list(o.shape), hashlib.sha256(o.tobytes()).hexdigest()]
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [plain(v) for v in o]
        return o

    return hashlib.sha256(json.dumps(plain(obj), sort_keys=True).encode()).hexdigest()


def platform_fingerprint():
    """Digest of a few fixed BLAS / libm results.

    The recorded digests hold wherever GEMM and ``exp`` round as they did
    on the recording host; another BLAS kernel may sum in another order.
    """
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(33, 100)), rng.normal(size=(100, 64))
    return digest([a @ b, a.T @ a, np.exp(a), np.log(np.abs(b) + 1.0),
                   np.sqrt(np.abs(a)), a.sum(axis=0), (a * a).sum()])


RECORDED_PLATFORM = "7ea12ec62da75015c4c1e6f257de3c649a633d2d66164ba53364d2729b62c330"
_GRID = {"n_train": 1000, "n_test": 200, "data_seed": 4321, "seed": 1234}
_CNN = dict(_GRID, dataset="cifar10", num_epochs=2, n_train=256, n_test=64)
PINNED = [
    (dict(_GRID, optimizer="Adam", num_epochs=5, batch_size=32),
     "4fe37e6ab6dcaa53ad6a2e85d085b5c0f429c46750c891bf29f5487250adbf77",
     "3cefb34387b7756b8cca66950f3ce6cda2913a1af2966ce357168881edd3efa0"),
    (dict(_GRID, optimizer="SGD", num_epochs=5, batch_size=64),
     "ae9fd9f8164c810a3d55e62b4e155f3a8b946c85ea92aeb8d2db051281fe4890",
     "d97b8734bff583c96bca8a83eac699e144c565b50689084bbce0a1604413bc60"),
    (dict(_GRID, optimizer="RMSprop", num_epochs=5, batch_size=128),
     "7a1adcb34f520725fdd928f404250216aa9f3fdc8fadeead31fdd570d0350b0c",
     "0371dc03c9c4760033a08ff73bd2016ebc70c6b49641213bf3013b00f3c2822e"),
    (dict(_GRID, optimizer="Adam", num_epochs=3, batch_size=32, dropout=0.25),
     "b64ff3332f98e79b75ba88bff7add52fd0716ea68767c963e13250005ee05e38",
     "a8f52daeeb444b395b86dbab760e1bd2d9709dd2af6994bc86cfef13fb0490ec"),
    (dict(_CNN, optimizer="Adam", batch_size=32, dropout=0.2),
     "5bb8f0fe99f938481770c74821533c757271ecc091a391cdc5da211254305cb7",
     "5d5aec5926fadfce6e017299b95092c542e401d3833db869db8481b9da633deb"),
    (dict(_CNN, optimizer="RMSprop", batch_size=64, batch_norm=True),
     "3e0fffa54cbe67d52cc044f337e4b20eda823340acbe16f77cce5546a1f3402f",
     "4ee4a1f1c69b0411eef6520b7be24a318cd4289cacaab338fc59ac8835cb81bf"),
]

needs_recording_platform = pytest.mark.skipif(
    platform_fingerprint() != RECORDED_PLATFORM,
    reason="this host's BLAS/libm round differently from the host the "
    "parent-commit digests were recorded on",
)


def history_and_final_spill(config, directory):
    """``train_experiment`` as a preemptible trial: its history and the
    state it spills at the end (weights, optimiser slots, RNG streams)."""
    ctx = PreemptContext("pinned", directory)
    result = train_experiment({**config, PREEMPT_CONFIG_KEY: ctx.spec()})
    return result["history"], ctx.load()


@needs_recording_platform
@pytest.mark.parametrize(
    "config, history_digest, state_digest", PINNED,
    ids=[f"{c.get('dataset', 'mnist')}-{c['optimizer']}-b{c['batch_size']}"
         for c, _, _ in PINNED],
)
def test_history_and_spill_match_the_parent_commit(
    config, history_digest, state_digest, tmp_path
):
    history, state = history_and_final_spill(config, tmp_path)
    assert digest(history) == history_digest
    # "buffers" is the one key the parent did not write (BatchNorm only).
    state.pop("buffers", None)
    assert digest(state) == state_digest


# ----------------------------------------------------------------------
# (c) The wire layout of a captured state stays per-parameter
# ----------------------------------------------------------------------
MLP_NAMES = [
    "1:dense/W", "1:dense/b", "3:dense/W", "3:dense/b", "5:dense/W", "5:dense/b",
]


def test_captured_mlp_state_has_the_parent_keys():
    model, batches = make_model("mlp", Adam(0.003))
    (x, y) = batches[0]
    model.fit(x, y, epochs=1, batch_size=16)
    state = model.capture_training_state(1)
    assert list(state) == [
        "epoch", "weights", "optimizer_iterations", "optimizer_state",
        "history", "build_rng_state", "fit_rng_state",
    ]
    assert [list(w) for w in state["weights"]] == [
        [], ["W", "b"], [], ["W", "b"], [], ["W", "b"],
    ]
    assert list(state["optimizer_state"]) == MLP_NAMES
    for (name, slots), layer_index in zip(
        state["optimizer_state"].items(), (1, 1, 3, 3, 5, 5)
    ):
        assert list(slots) == ["m", "v"]
        shape = state["weights"][layer_index][name[-1]].shape
        assert slots["m"].shape == slots["v"].shape == shape
        assert slots["m"].flags.owndata and slots["m"].flags.c_contiguous


def test_state_before_the_first_step_has_no_optimizer_slots():
    model, _ = make_model("mlp", Adam(0.003))
    assert model.capture_training_state(0)["optimizer_state"] == {}
    model.restore_training_state(model.capture_training_state(0))
    assert model.capture_training_state(0)["optimizer_state"] == {}


@pytest.mark.parametrize("opt", OPTIMIZERS)
def test_hand_built_per_parameter_state_restores_and_continues(opt):
    """A state dict assembled from plain per-parameter arrays — what the
    parent commit wrote — restores into the arena and trains on as if
    the reference had never stopped."""
    ref, batches = make_model("mlp", OPTIMIZERS[opt]())
    slots = {}
    for t in range(1, 11):
        reference_step(ref, ref.optimizer, slots, t, *batches[t % len(batches)])
    state = {
        "epoch": 1,
        "weights": [
            {k: np.array(v) for k, v in layer.params.items()} for layer in ref.layers
        ],
        "optimizer_iterations": 10,
        "optimizer_state": {
            name: {k: np.array(v) for k, v in s.items()} for name, s in slots.items()
        },
        "history": {"epochs": [0], "loss": [1.5]},
    }
    model, _ = make_model("mlp", OPTIMIZERS[opt]())
    epoch, history = model.restore_training_state(state)
    assert (epoch, history.as_dict()) == (1, {"epochs": [0], "loss": [1.5]})
    assert model.optimizer.iterations == 10
    assert_same_model(model, ref, slots)
    for t in range(11, 31):
        x, y = batches[t % len(batches)]
        assert model.train_on_batch(x, y) == reference_step(
            ref, ref.optimizer, slots, t, x, y
        )
    assert_same_model(model, ref, slots)


# ----------------------------------------------------------------------
# (d) Every public way of writing weights reaches the arena
# ----------------------------------------------------------------------
def _write_set_weights(model, weights, tmp_path):
    model.set_weights(weights)


def _write_set_params(model, weights, tmp_path):
    for layer, w in zip(model.layers, weights):
        if w:
            layer.set_params(w)


def _write_load_weights(model, weights, tmp_path):
    donor, _ = make_model("mlp", SGD(0.1))
    donor.set_weights(weights)
    load_weights(model, save_weights(donor, tmp_path / "w"))


@pytest.mark.parametrize(
    "write", [_write_set_weights, _write_set_params, _write_load_weights]
)
def test_written_weights_are_the_ones_the_next_step_updates(write, tmp_path):
    model, batches = make_model("mlp", SGD(0.1))
    rng = np.random.default_rng(3)
    weights = [
        {k: rng.normal(scale=0.1, size=v.shape) for k, v in w.items()}
        for w in model.get_weights()
    ]
    write(model, weights, tmp_path)
    for got, want in zip(model.get_weights(), weights):
        for key in want:
            assert same_bytes(got[key], want[key])
    model.train_on_batch(*batches[0])
    for layer, want, got in zip(model.layers, weights, model.get_weights()):
        for key in want:
            # plain SGD: p <- p - lr * g, on the values just written
            expected = want[key].copy()
            expected -= 0.1 * layer.grads[key]
            assert same_bytes(got[key], expected)
            assert not same_bytes(got[key], want[key])


def test_get_weights_returns_copies():
    model, batches = make_model("mlp", SGD(0.1))
    snapshot = model.get_weights()
    for layer, w in zip(model.layers, snapshot):
        for key, value in w.items():
            assert not np.shares_memory(value, layer.params[key])
    kept = snapshot[1]["W"].copy()
    model.train_on_batch(*batches[0])
    assert same_bytes(snapshot[1]["W"], kept)  # the step did not reach the copy
    assert not same_bytes(model.get_weights()[1]["W"], kept)
    snapshot[1]["W"][...] = 0.0  # and writing the copy does not reach the model
    assert model.layers[1].params["W"].any()


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_a_copied_model_trains_on_its_own_arena(clone):
    model, batches = make_model("mlp_dropout", Adam(0.003))
    for x, y in batches[:3]:
        model.train_on_batch(x, y)
    twin = clone(model)
    for x, y in batches[3:6]:
        assert twin.train_on_batch(x, y) == model.train_on_batch(x, y)
    for layer, twin_layer in zip(model.layers, twin.layers):
        for key, value in layer.params.items():
            assert same_bytes(value, twin_layer.params[key])
            assert not np.shares_memory(value, twin_layer.params[key])


def test_standalone_layer_owns_its_arrays_and_refills_them_in_place():
    rng = np.random.default_rng(0)
    layer = Dense(3)
    layer.build((5,), rng)
    grad_w = layer.grads["W"]
    for _ in range(2):
        x = rng.normal(size=(4, 5))
        layer.forward(x, training=True)
        g = rng.normal(size=(4, 3))
        layer.backward(g)
        assert layer.grads["W"] is grad_w
        assert same_bytes(grad_w, x.T @ g)
    layer.forward(x, training=True)
    assert layer.backward(g, need_input_grad=False) is None


# ----------------------------------------------------------------------
# (f) BatchNorm running statistics survive a resume
# ----------------------------------------------------------------------
BN_CONFIG = dict(
    dataset="cifar10", optimizer="Adam", batch_norm=True, num_epochs=4,
    batch_size=32, n_train=192, n_test=64, data_seed=9, seed=2,
)


def test_batch_norm_resume_through_restore_training_state():
    (x, y), val = load_cifar_like(n_train=192, n_test=64, seed=9)
    fit = dict(batch_size=32, validation_data=val)
    straight = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=2)
    full = straight.fit(x, y, epochs=4, **fit).as_dict()

    first = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=2)
    state = first.capture_training_state(2, first.fit(x, y, epochs=2, **fit))
    assert [sorted(b) for b in state["buffers"] if b] == [
        ["running_mean", "running_var"]
    ] * 2
    resumed = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=2)
    epoch, history = resumed.restore_training_state(state)
    got = resumed.fit(
        x, y, epochs=4, initial_epoch=epoch, history=history, **fit
    ).as_dict()
    assert got == full

    # A state without the key (an MLP's, or one written before buffers
    # were carried) still restores; the statistics just start over.
    del state["buffers"]
    older = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=2)
    older.restore_training_state(state)
    assert not older.layers[1].running_mean.any()


def test_batch_norm_resume_through_a_staged_chain():
    want = train_experiment(BN_CONFIG)
    runner = PyCOMPSsRunner(
        "grid",
        space=SearchSpace.from_dict({k: [v] for k, v in BN_CONFIG.items()}),
        runtime_config=RuntimeConfig(cluster=local_machine(2)),
        stage_plan=StagePlan(block_epochs=2, objective="train"),
        study_name="bn-staged",
    )
    (trial,) = runner.run().completed()
    assert trial.result.history == want["history"]
    assert trial.result.val_loss == want["val_loss"]


def test_save_and_load_weights_carry_buffers(tmp_path):
    (x, y), _ = load_cifar_like(n_train=64, n_test=10, seed=9)
    trained = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=2)
    trained.fit(x, y, epochs=1, batch_size=32)
    fresh = create_model(BN_CONFIG, input_shape=x.shape[1:], seed=3)
    load_weights(fresh, save_weights(trained, tmp_path / "bn"))
    assert same_bytes(fresh.layers[1].running_var, trained.layers[1].running_var)
    assert fresh.evaluate(x, y) == trained.evaluate(x, y)


# ----------------------------------------------------------------------
# Import cost: the grid never needs scipy
# ----------------------------------------------------------------------
def test_importing_the_package_does_not_import_scipy():
    code = (
        "import sys, repro, repro.hpo, repro.cli\n"
        "from repro.hpo.algorithms import BayesianOptimization\n"
        "assert 'scipy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
