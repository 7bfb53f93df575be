"""Training callbacks.

The paper twice stresses early stopping: per-trial ("training doesn't have
to run all the way to the end", §4) and across trials ("the process can be
stopped as soon as one task achieves a specified accuracy", §6.1).  The
per-trial half lives here; the cross-trial half is
:mod:`repro.hpo.early_stopping`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np


class Callback:
    """Base callback; all hooks are optional no-ops.

    ``set_model`` is called once before training; hooks receive the 0-based
    epoch index and the dict of epoch-end logs (``loss``, ``accuracy``,
    ``val_loss``, ``val_accuracy`` when validation data is present).
    """

    def set_model(self, model) -> None:
        self.model = model

    def on_train_begin(self, logs: Optional[Dict[str, float]] = None) -> None:
        """Called once before the first epoch."""

    def on_epoch_begin(self, epoch: int, logs: Optional[Dict[str, float]] = None) -> None:
        """Called at the start of each epoch."""

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        """Called after each epoch with that epoch's metrics."""

    def on_train_end(self, logs: Optional[Dict[str, float]] = None) -> None:
        """Called once after the last epoch (or early stop)."""


class EarlyStopping(Callback):
    """Stop training when a monitored metric stops improving.

    Parameters
    ----------
    monitor:
        Logs key to watch (e.g. ``"val_loss"`` or ``"val_accuracy"``).
    patience:
        Epochs without improvement tolerated before stopping.
    min_delta:
        Minimum change that counts as an improvement.
    mode:
        ``"min"`` (default for losses) or ``"max"`` (accuracies); ``"auto"``
        infers from the metric name.
    restore_best_weights:
        Restore the weights from the best epoch when stopping.
    """

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 3,
        min_delta: float = 0.0,
        mode: str = "auto",
        restore_best_weights: bool = False,
    ):
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        if mode not in ("auto", "min", "max"):
            raise ValueError(f"mode must be auto/min/max, got {mode!r}")
        if mode == "auto":
            mode = "max" if "acc" in monitor else "min"
        self.monitor = monitor
        self.patience = patience
        self.min_delta = abs(float(min_delta))
        self.mode = mode
        self.restore_best_weights = restore_best_weights
        self.stopped_epoch: Optional[int] = None
        self.best: float = np.inf if mode == "min" else -np.inf
        self._wait = 0
        self._best_weights = None

    def _improved(self, value: float) -> bool:
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_train_begin(self, logs=None) -> None:
        self.best = np.inf if self.mode == "min" else -np.inf
        self._wait = 0
        self.stopped_epoch = None
        self._best_weights = None

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        if self.monitor not in logs:
            raise KeyError(
                f"EarlyStopping monitors {self.monitor!r} but epoch logs only "
                f"have {sorted(logs)}; pass validation data to fit()?"
            )
        value = float(logs[self.monitor])
        if self._improved(value):
            self.best = value
            self._wait = 0
            if self.restore_best_weights:
                self._best_weights = self.model.get_weights()
        else:
            self._wait += 1
            if self._wait > self.patience:
                self.stopped_epoch = epoch
                self.model.stop_training = True
                if self.restore_best_weights and self._best_weights is not None:
                    self.model.set_weights(self._best_weights)


class TargetMetricStopping(Callback):
    """Stop as soon as a metric crosses a target value.

    Implements the paper's §6.1 observation for a single trial: "it makes
    no sense to continue … after one has achieved the desired accuracy".
    """

    def __init__(self, monitor: str = "val_accuracy", target: float = 0.9):
        self.monitor = monitor
        self.target = float(target)
        self.stopped_epoch: Optional[int] = None

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        value = logs.get(self.monitor)
        if value is not None and float(value) >= self.target:
            self.stopped_epoch = epoch
            self.model.stop_training = True


class PreemptionCheckpoint(Callback):
    """Cooperative suspension: poll a flag each checkpoint epoch, spill warm.

    Rides ``on_epoch_end`` so the cut is always on an epoch boundary: when
    ``should_suspend()`` answers True at a checkpoint epoch, the callback
    captures the model's full training state (weights, optimiser, RNG
    streams, history) with the epoch *cursor* pointing at the next epoch
    to run, hands it to ``spill`` (one atomic, self-verifying entry), and
    stops training.  The owner detects the stop via ``suspended_epoch``
    and requeues the trial as a resumable task.

    Parameters
    ----------
    should_suspend:
        Zero-arg predicate polled once per checkpoint epoch (e.g.
        ``PreemptContext.should_suspend``).
    spill:
        Called with the captured state dict when suspending.
    every:
        Checkpoint-epoch cadence (poll every ``every``-th epoch end);
        maps from ``RuntimeConfig.preempt_checkpoint_epochs``.
    """

    def __init__(
        self,
        should_suspend: Callable[[], bool],
        spill: Callable[[Dict], object],
        every: int = 1,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.should_suspend = should_suspend
        self.spill = spill
        self.every = int(every)
        self.suspended_epoch: Optional[int] = None

    def on_train_begin(self, logs=None) -> None:
        self.suspended_epoch = None

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        if (epoch + 1) % self.every != 0:
            return
        if self.model.stop_training:  # an earlier callback already finished it
            return
        if not self.should_suspend():
            return
        state = self.model.capture_training_state(epoch + 1, self.model.history)
        self.spill(state)
        self.suspended_epoch = epoch
        self.model.stop_training = True


class LambdaCallback(Callback):
    """Adapter turning plain functions into a callback.

    >>> seen = []
    >>> cb = LambdaCallback(on_epoch_end=lambda e, logs: seen.append(e))
    """

    def __init__(
        self,
        on_train_begin: Optional[Callable] = None,
        on_epoch_begin: Optional[Callable] = None,
        on_epoch_end: Optional[Callable] = None,
        on_train_end: Optional[Callable] = None,
    ):
        self._on_train_begin = on_train_begin
        self._on_epoch_begin = on_epoch_begin
        self._on_epoch_end = on_epoch_end
        self._on_train_end = on_train_end

    def on_train_begin(self, logs=None) -> None:
        if self._on_train_begin:
            self._on_train_begin(logs)

    def on_epoch_begin(self, epoch, logs=None) -> None:
        if self._on_epoch_begin:
            self._on_epoch_begin(epoch, logs)

    def on_epoch_end(self, epoch, logs) -> None:
        if self._on_epoch_end:
            self._on_epoch_end(epoch, logs)

    def on_train_end(self, logs=None) -> None:
        if self._on_train_end:
            self._on_train_end(logs)
