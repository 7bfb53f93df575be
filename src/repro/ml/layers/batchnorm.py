"""Batch normalisation (Ioffe & Szegedy, 2015).

Normalises over the batch (and spatial axes for image inputs), with
learnable scale/shift and running statistics for inference.  Included
because deeper CNN configs in the CIFAR-like regime train noticeably
better with it — one of the architecture knobs an HPO study sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.ml.layers.base import ParamLayer
from repro.util.validation import check_in_range, check_positive


class BatchNorm(ParamLayer):
    """Normalise activations to zero mean / unit variance per channel.

    Parameters
    ----------
    momentum:
        Running-statistics update factor (closer to 1 = slower).
    epsilon:
        Variance floor.
    """

    def __init__(
        self,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        check_in_range("momentum", momentum, 0.0, 1.0)
        check_positive("epsilon", epsilon)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self._axes: Tuple[int, ...] = (0,)
        self._cache = None
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        channels = int(input_shape[-1])
        # Normalise over batch (+ spatial dims for images).
        self._axes = tuple(range(len(input_shape)))  # with batch axis at 0
        self._axes = (0,) + tuple(i + 1 for i in range(len(input_shape) - 1))
        self._register({
            "gamma": np.ones(channels, dtype=np.float64),
            "beta": np.zeros(channels, dtype=np.float64),
        })
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        assert self.running_mean is not None and self.running_var is not None
        gamma, beta = self._params["gamma"], self._params["beta"]
        if training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)
            m = self.momentum
            self.running_mean *= m
            self.running_mean += (1.0 - m) * mean
            self.running_var *= m
            self.running_var += (1.0 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean) * inv_std
        if training:
            self._cache = (x_hat, inv_std)
        return gamma * x_hat + beta

    @property
    def buffers(self) -> Dict[str, np.ndarray]:
        if self.running_mean is None or self.running_var is None:
            return {}
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        self._require_built()
        if self._cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_hat, inv_std = self._cache
        self._cache = None
        axes = self._axes
        (grad_out * x_hat).sum(axis=axes, out=self._grads["gamma"])
        grad_out.sum(axis=axes, out=self._grads["beta"])
        if not need_input_grad:
            return None
        # Standard batchnorm input gradient (vectorised over channels).
        dxhat = grad_out * self._params["gamma"]
        grad_in = (
            dxhat
            - dxhat.mean(axis=axes, keepdims=True)
            - x_hat * (dxhat * x_hat).mean(axis=axes, keepdims=True)
        ) * inv_std
        return grad_in
