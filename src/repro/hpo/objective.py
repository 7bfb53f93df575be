"""The default training objective — the body of the paper's ``experiment``
task (Listing 2).

Module-level and picklable so it runs under every executor backend
(threads, workers, simulated-with-bodies).  Builds a fresh model from
the config via :func:`repro.ml.create_model` ("new model created every
time with different parameters"), trains it, and returns the validation
metrics plus training history.

Config keys consumed (all optional except none):

* ``dataset`` — ``"mnist"`` (default) or ``"cifar10"``;
* ``num_epochs`` / ``batch_size`` / ``optimizer`` / ``learning_rate`` /
  ``architecture`` / ``hidden_units`` / ``filters`` / ``dropout`` —
  model/training hyperparameters (see the model zoo);
* ``n_train`` / ``n_test`` — synthetic dataset sizes (defaults 1200/300);
* ``data_seed`` / ``seed`` — dataset and model determinism;
* ``target_accuracy`` — per-trial early stop once validation accuracy
  crosses it (paper §4: "training doesn't have to run all the way to the
  end").
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping

from repro.ml import PreemptionCheckpoint, TargetMetricStopping, create_model
from repro.ml.datasets import load_cifar_like, load_mnist_like
from repro.ml.datasets.cache import cached_dataset
from repro.runtime.preemption import SUSPENDED_PAYLOAD_KEY, PreemptContext

_DATASET_LOADERS = {
    "mnist": load_mnist_like,
    "cifar10": load_cifar_like,
    "cifar": load_cifar_like,
}


def train_experiment(
    config: Mapping[str, Any], resume_epoch: int = 0
) -> Dict[str, Any]:
    """Train one model for ``config``; return metrics + history.

    This is the function the paper decorates with ``@task(returns=int)``
    — here it returns a richer dict, but the scheme is identical.

    When the config carries a preemption context (injected by the runner
    under ``__preempt__``), the trial is *preemptible*: a checkpoint-epoch
    callback polls the suspension flag and spills model + optimiser +
    epoch cursor warm, and a prior spill — from a suspension or a lower
    ASHA rung — is restored at start so training continues from its
    cursor.  ``resume_epoch`` is the cursor the resubmitting runner
    expects; it extends the resumed task's deterministic key (the actual
    cursor is read from the verified spill, so a torn spill degrades to a
    cold start, never a wrong restore).
    """
    start = time.perf_counter()
    dataset = str(config.get("dataset", "mnist")).lower()
    try:
        loader = _DATASET_LOADERS[dataset]
    except KeyError:
        raise ValueError(
            f"unknown dataset {dataset!r}; known: {sorted(_DATASET_LOADERS)}"
        ) from None
    n_train = int(config.get("n_train", 1200))
    n_test = int(config.get("n_test", 300))
    data_seed = int(config.get("data_seed", 0))
    # Memoised per process: every trial of a grid shares the same arrays
    # (read-only), mirroring COMPSs' reuse of staged data (paper §4).
    (x_train, y_train), (x_val, y_val) = cached_dataset(
        loader, n_train=n_train, n_test=n_test, seed=data_seed
    )

    model = create_model(
        config, input_shape=x_train.shape[1:], seed=int(config.get("seed", 0))
    )
    epochs = int(config.get("num_epochs", config.get("epochs", 10)))

    ctx = PreemptContext.from_config(config)
    initial_epoch = 0
    history = None
    if ctx is not None:
        spilled = ctx.load()
        if spilled is not None and 0 < int(spilled.get("epoch", 0)) < epochs:
            if not model.built:
                model.build(x_train.shape[1:])
            initial_epoch, history = model.restore_training_state(spilled)

    callbacks = []
    target = config.get("target_accuracy")
    if target is not None:
        callbacks.append(
            TargetMetricStopping(monitor="val_accuracy", target=float(target))
        )
    preempt_cb = None
    if ctx is not None:
        # Appended after the stopping callbacks so a trial that just
        # finished (target reached) is never also marked suspended.
        preempt_cb = PreemptionCheckpoint(
            should_suspend=ctx.should_suspend, spill=ctx.spill, every=ctx.every
        )
        callbacks.append(preempt_cb)
    history = model.fit(
        x_train,
        y_train,
        epochs=epochs,
        batch_size=int(config.get("batch_size", 32)),
        validation_data=(x_val, y_val),
        callbacks=callbacks,
        initial_epoch=initial_epoch,
        history=history,
    )
    result: Dict[str, Any] = {
        "val_accuracy": history.final("val_accuracy"),
        "val_loss": history.final("val_loss"),
        "train_accuracy": history.final("accuracy"),
        "train_loss": history.final("loss"),
        "history": history.as_dict(),
        "epochs_run": len(history),
        "resumed_from": initial_epoch,
        "duration_s": time.perf_counter() - start,
    }
    if preempt_cb is not None and preempt_cb.suspended_epoch is not None:
        # Spilled warm at a checkpoint epoch: mark the payload so the
        # runner requeues a resumable task instead of finishing the trial.
        result[SUSPENDED_PAYLOAD_KEY] = True
        result["epochs_done"] = len(history)
    elif ctx is not None:
        # Natural end: spill the final state too (the rung-pause an
        # asynchronous ASHA promotion resumes from).
        ctx.spill(model.capture_training_state(len(history), history))
    return result


def fast_mock_objective(config: Mapping[str, Any]) -> Dict[str, Any]:
    """A deterministic, instant objective for scheduling-only experiments.

    Used by the trace/makespan benchmarks (Figs. 4–6, 9) where only task
    *durations* matter: it fabricates a plausible accuracy from the config
    without training, so 27-task grids over 28 simulated nodes cost
    microseconds of real time.
    """
    epochs = int(config.get("num_epochs", config.get("epochs", 10)))
    batch = int(config.get("batch_size", 32))
    optimizer = str(config.get("optimizer", "SGD"))
    base = {"Adam": 0.92, "RMSprop": 0.90, "SGD": 0.86}.get(optimizer, 0.85)
    gain = 0.08 * (1.0 - 1.0 / (1.0 + epochs / 40.0))
    penalty = 0.01 if batch >= 128 else 0.0
    acc = min(0.999, base + gain - penalty)
    return {
        "val_accuracy": acc,
        "val_loss": 1.0 - acc,
        "history": {
            "epochs": list(range(epochs)),
            "val_accuracy": [
                acc * (1.0 - float(2.0 ** (-e / max(1.0, epochs / 5.0))))
                + 0.1 * float(2.0 ** (-e / max(1.0, epochs / 5.0)))
                for e in range(epochs)
            ],
        },
        "epochs_run": epochs,
        "duration_s": 0.0,
    }


def preemptible_mock_objective(
    config: Mapping[str, Any], resume_epoch: int = 0
) -> Dict[str, Any]:
    """``fast_mock_objective`` metrics, paid for epoch by epoch, preemptible.

    Walks the same deterministic accuracy curve one epoch at a time
    (optionally sleeping ``epoch_sleep_s`` per epoch so suspends can land
    mid-flight), polling the preemption flag at the checkpoint cadence
    and spilling/restoring an epoch cursor through the same
    :class:`~repro.runtime.preemption.PreemptContext` protocol as real
    training.  Used by the preemption chaos tests and the AsyncASHA
    benchmark, where scheduling behaviour matters but training doesn't.
    """
    start = time.perf_counter()
    full = fast_mock_objective(config)
    epochs = int(config.get("num_epochs", config.get("epochs", 10)))
    curve = full["history"]["val_accuracy"]
    sleep_s = float(config.get("epoch_sleep_s", 0.0))

    ctx = PreemptContext.from_config(config)
    cursor = 0
    if ctx is not None:
        spilled = ctx.load()
        if spilled is not None and 0 < int(spilled.get("epoch", 0)) < epochs:
            cursor = int(spilled["epoch"])
    resumed_from = cursor

    suspended = False
    while cursor < epochs:
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        cursor += 1
        if ctx is not None and cursor % ctx.every == 0 and ctx.should_suspend():
            ctx.spill({"epoch": cursor})
            suspended = cursor < epochs
            break

    done = cursor
    acc = curve[done - 1] if done else 0.0
    result: Dict[str, Any] = {
        "val_accuracy": acc,
        "val_loss": 1.0 - acc,
        "history": {
            "epochs": list(range(done)),
            "val_accuracy": curve[:done],
        },
        "epochs_run": done,
        "resumed_from": resumed_from,
        "duration_s": time.perf_counter() - start,
    }
    if suspended:
        result[SUSPENDED_PAYLOAD_KEY] = True
        result["epochs_done"] = done
    elif ctx is not None:
        ctx.spill({"epoch": done})
    return result


def slow_mock_objective(config: Mapping[str, Any]) -> Dict[str, Any]:
    """``fast_mock_objective`` with a short real sleep (~50 ms).

    Module-level (picklable) so service soak tests can reference it by
    name across a daemon restart; the sleep keeps studies in flight long
    enough for a mid-soak SIGKILL to land while work is outstanding.
    """
    import time

    time.sleep(0.05)
    return fast_mock_objective(config)


def poison_objective(config: Mapping[str, Any]) -> Dict[str, Any]:
    """An objective that always fails — a tenant's crash-looping trial.

    Raises (rather than ``os._exit``) so a threads-backend service daemon
    survives; the task burns its retry budget, the trial fails, and the
    study's failed-trial budget decides when the *study* is terminated.
    Other tenants sharing the daemon must be unaffected.
    """
    raise RuntimeError(
        f"poison objective: deliberate failure for config {dict(config)!r}"
    )
