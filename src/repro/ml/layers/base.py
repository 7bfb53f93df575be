"""Layer base classes.

The framework uses explicit forward/backward methods (no autograd): each
layer caches what it needs during ``forward`` (fresh arrays per batch,
dropped in ``backward``) and consumes it in ``backward``.

Parameter and gradient storage is allocated once.  A layer's ``build``
hands its initialised arrays to :meth:`ParamLayer._register`, which also
allocates one same-shaped gradient array per parameter; a standalone
layer owns both.  :meth:`Sequential.build
<repro.ml.model.Sequential.build>` then moves every layer's arrays into
one contiguous float64 *parameter arena* and a same-shaped *gradient
arena* (:meth:`ParamLayer.bind`), so ``params[k]`` / ``grads[k]`` are
reshaped views and the optimiser updates the whole model in one call.
Two rules follow for a new parameter layer:

* ``backward`` writes each gradient **into** ``self._grads[k]``
  (``np.matmul(..., out=)``, ``g.sum(axis=0, out=)``) and never rebinds
  the dict entry — a rebound array would leave the arena stale;
* ``backward`` takes ``need_input_grad`` and returns ``None`` without
  computing dL/d(input) when it is false: the model passes ``False`` to
  its first parameter layer, whose input gradient nothing consumes.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np


class Layer(abc.ABC):
    """Abstract layer.

    Subclasses implement :meth:`forward` and :meth:`backward` and, if they
    have learnable state, override :attr:`params` / :attr:`grads`.

    Shapes use the Keras convention: the leading axis is the batch.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__.lower()
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for ``input_shape`` (sans batch axis).

        Default: shape-preserving layer with no parameters.
        """
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for batch ``x``."""

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), populate parameter grads and return dL/d(input)."""

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Learnable parameter arrays by name (empty for stateless layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient arrays matching :attr:`params` keys."""
        return {}

    @property
    def buffers(self) -> Dict[str, np.ndarray]:
        """Non-trainable state a resume must carry (e.g. running statistics)."""
        return {}

    @property
    def n_params(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(
                f"layer {self.name!r} used before build(); add it to a model "
                "or call build(input_shape, rng) first"
            )

    def __repr__(self) -> str:
        shape = self.output_shape if self.built else "?"
        return f"{type(self).__name__}(name={self.name!r}, out={shape})"


class ParamLayer(Layer):
    """Base for layers with learnable parameters.

    Provides dict-backed parameter/gradient storage; subclasses pass
    their initialised arrays to :meth:`_register` during :meth:`build`
    and write into the matching :attr:`_grads` entries during
    :meth:`backward` (see the module docstring for the contract).
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads

    def _register(self, params: Dict[str, np.ndarray]) -> None:
        """Adopt freshly initialised ``params``; allocate their gradients."""
        self._params = params
        self._grads = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}

    def bind(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Move parameter ``key`` into ``param`` (keeping its values) and
        its gradient into ``grad`` — views of the owning model's arenas."""
        param[...] = self._params[key]
        self._params[key] = param
        self._grads[key] = grad

    def set_params(self, new_params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place (used by serialisation/tests)."""
        for key, value in new_params.items():
            if key not in self._params:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            if self._params[key].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {self.name}.{key}: "
                    f"{self._params[key].shape} vs {value.shape}"
                )
            self._params[key][...] = value
