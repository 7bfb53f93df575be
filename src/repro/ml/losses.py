"""Loss functions.

Each loss exposes ``value(y_true, y_pred)`` and ``gradient(y_true, y_pred)``
where the gradient is dL/d(model output), averaged over the batch, and
``value_and_gradient`` which the training step calls to get both from one
pass.  :class:`CategoricalCrossentropy` supports ``from_logits=True`` which
fuses softmax + cross-entropy for numerical stability (the gradient
collapses to ``(p − y) / n``).
"""

from __future__ import annotations

import abc
from typing import Tuple, Union

import numpy as np

from repro.ml.layers.activations import softmax


class Loss(abc.ABC):
    """Abstract loss over batched predictions."""

    @abc.abstractmethod
    def value(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        """Mean loss over the batch."""

    @abc.abstractmethod
    def gradient(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        """dL/d(y_pred), already divided by the batch size."""

    def value_and_gradient(
        self, y_true: np.ndarray, y_pred: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """``(value, gradient)`` of one batch; subclasses may share work."""
        return self.value(y_true, y_pred), self.gradient(y_true, y_pred)

    @staticmethod
    def _check_shapes(y_true: np.ndarray, y_pred: np.ndarray) -> None:
        if y_true.shape != y_pred.shape:
            raise ValueError(
                f"y_true shape {y_true.shape} != y_pred shape {y_pred.shape}"
            )


class CategoricalCrossentropy(Loss):
    """Cross-entropy over one-hot targets.

    Parameters
    ----------
    from_logits:
        If True, ``y_pred`` are unnormalised logits and softmax is applied
        internally (the numerically-stable path used by the model zoo).
    eps:
        Probability floor used when ``from_logits=False``.
    """

    def __init__(self, from_logits: bool = True, eps: float = 1e-12):
        self.from_logits = from_logits
        self.eps = float(eps)

    def _probs(self, y_pred: np.ndarray) -> np.ndarray:
        if self.from_logits:
            return softmax(y_pred)
        return np.clip(y_pred, self.eps, 1.0)

    def value(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        self._check_shapes(y_true, y_pred)
        if self.from_logits:
            # log-softmax computed stably: x - max - log(sum(exp(x - max)))
            shifted = y_pred - y_pred.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(
                np.exp(shifted).sum(axis=-1, keepdims=True)
            )
            return float(-(y_true * log_probs).sum() / y_true.shape[0])
        probs = self._probs(y_pred)
        return float(-(y_true * np.log(probs)).sum() / y_true.shape[0])

    def gradient(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        self._check_shapes(y_true, y_pred)
        n = y_true.shape[0]
        if self.from_logits:
            return (softmax(y_pred) - y_true) / n
        probs = self._probs(y_pred)
        return (-y_true / probs) / n

    def value_and_gradient(
        self, y_true: np.ndarray, y_pred: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if not self.from_logits:
            return super().value_and_gradient(y_true, y_pred)
        # value() and gradient() above, sharing shifted / exp / row sums.
        self._check_shapes(y_true, y_pred)
        n = y_true.shape[0]
        shifted = y_pred - y_pred.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        row_sum = e.sum(axis=-1, keepdims=True)
        value = float(-(y_true * (shifted - np.log(row_sum))).sum() / n)
        return value, (e / row_sum - y_true) / n


class MeanSquaredError(Loss):
    """Mean squared error (per-element mean)."""

    def value(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        self._check_shapes(y_true, y_pred)
        diff = y_pred - y_true
        return float(np.mean(diff * diff))

    def gradient(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        self._check_shapes(y_true, y_pred)
        return 2.0 * (y_pred - y_true) / y_true.size


_LOSSES = {
    "categorical_crossentropy": lambda: CategoricalCrossentropy(from_logits=True),
    "mse": MeanSquaredError,
    "mean_squared_error": MeanSquaredError,
}


def get_loss(loss: Union[str, Loss]) -> Loss:
    """Resolve a loss by name or pass an instance through."""
    if isinstance(loss, Loss):
        return loss
    try:
        return _LOSSES[loss]()
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}; known: {sorted(_LOSSES)}") from None
