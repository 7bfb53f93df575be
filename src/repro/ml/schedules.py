"""Learning-rate schedules.

A schedule is attached to training via :class:`LearningRateScheduler`
(a callback) and mutates the optimiser's ``learning_rate`` at each epoch
start.  Decaying the rate is one of the standard hyperparameters an HPO
study can sweep — included for the extended search spaces.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

import numpy as np

from repro.ml.callbacks import Callback
from repro.util.validation import check_in_range, check_positive


class LearningRateSchedule(abc.ABC):
    """Maps (epoch, base learning rate) → learning rate."""

    @abc.abstractmethod
    def __call__(self, epoch: int, base_lr: float) -> float:
        """Learning rate to use for ``epoch`` (0-based)."""


class StepDecay(LearningRateSchedule):
    """Multiply by ``factor`` every ``step_size`` epochs.

    >>> s = StepDecay(step_size=10, factor=0.5)
    >>> s(0, 1.0), s(10, 1.0), s(20, 1.0)
    (1.0, 0.5, 0.25)
    """

    def __init__(self, step_size: int = 10, factor: float = 0.5):
        check_positive("step_size", step_size)
        check_in_range("factor", factor, 0.0, 1.0, inclusive=False)
        self.step_size = int(step_size)
        self.factor = float(factor)

    def __call__(self, epoch: int, base_lr: float) -> float:
        return base_lr * self.factor ** (epoch // self.step_size)


class ExponentialDecay(LearningRateSchedule):
    """``lr = base · exp(−rate · epoch)``."""

    def __init__(self, rate: float = 0.05):
        check_positive("rate", rate)
        self.rate = float(rate)

    def __call__(self, epoch: int, base_lr: float) -> float:
        return float(base_lr * np.exp(-self.rate * epoch))


class CosineDecay(LearningRateSchedule):
    """Cosine annealing from ``base`` to ``min_lr`` over ``total_epochs``."""

    def __init__(self, total_epochs: int, min_lr: float = 0.0):
        check_positive("total_epochs", total_epochs)
        if min_lr < 0:
            raise ValueError(f"min_lr must be >= 0, got {min_lr}")
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)

    def __call__(self, epoch: int, base_lr: float) -> float:
        t = min(epoch, self.total_epochs) / self.total_epochs
        return self.min_lr + 0.5 * (base_lr - self.min_lr) * (
            1.0 + float(np.cos(np.pi * t))
        )


class LearningRateScheduler(Callback):
    """Callback applying a schedule (or plain function) each epoch.

    The base learning rate is captured at ``on_train_begin`` so the same
    optimiser can be reused across fits.
    """

    def __init__(self, schedule: "LearningRateSchedule | Callable[[int, float], float]"):
        self.schedule = schedule
        self._base_lr: Optional[float] = None
        self.history: list = []

    def on_train_begin(self, logs=None) -> None:
        if self.model.optimizer is None:
            raise RuntimeError("LearningRateScheduler needs a compiled model")
        self._base_lr = self.model.optimizer.learning_rate
        self.history = []

    def on_epoch_begin(self, epoch: int, logs=None) -> None:
        assert self._base_lr is not None
        lr = float(self.schedule(epoch, self._base_lr))
        if lr <= 0:
            raise ValueError(f"schedule produced non-positive lr {lr} at epoch {epoch}")
        self.model.optimizer.learning_rate = lr
        self.history.append(lr)

    def on_train_end(self, logs=None) -> None:
        if self._base_lr is not None:
            self.model.optimizer.learning_rate = self._base_lr
