"""Optimiser base class.

Optimisers receive ``(name, param, grad)`` triples each step and update the
parameter arrays **in place**; slot arrays (moment estimates etc.) are
allocated on a name's first step, keyed by that name, and updated in place
afterwards (the element-wise temporaries of an update are still fresh
arrays).  :class:`~repro.ml.model.Sequential` passes a single triple —
``(ARENA, parameter arena, gradient arena)`` — so every update rule runs
once per step over the whole model; element-wise arithmetic gives each
parameter the bits it would get from its own triple.  The arena's slots
cross the suspend/resume boundary in per-parameter form through
:meth:`Optimizer.export_state` / :meth:`Optimizer.import_state`.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.util.validation import check_positive


#: State key of a model's flat parameter arena.
ARENA = "arena"
#: ``(qualified name, arena slice, shape)`` per parameter, in arena order.
Layout = Sequence[Tuple[str, slice, Tuple[int, ...]]]


class Optimizer(abc.ABC):
    """Abstract gradient-descent optimiser."""

    def __init__(self, learning_rate: float = 0.01):
        check_positive("learning_rate", learning_rate)
        self.learning_rate = float(learning_rate)
        self.iterations = 0
        self._state: Dict[str, Dict[str, np.ndarray]] = {}

    def apply_gradients(
        self, params_and_grads: Iterable[Tuple[str, np.ndarray, np.ndarray]]
    ) -> None:
        """Apply one update step to all parameters (in place)."""
        self.iterations += 1
        for name, param, grad in params_and_grads:
            if param.shape != grad.shape:
                raise ValueError(
                    f"grad shape {grad.shape} != param shape {param.shape} "
                    f"for {name!r}"
                )
            state = self._state.setdefault(name, {})
            self._update(param, grad, state)

    @abc.abstractmethod
    def _update(
        self, param: np.ndarray, grad: np.ndarray, state: Dict[str, np.ndarray]
    ) -> None:
        """Update one parameter array in place."""

    def reset(self) -> None:
        """Drop all accumulated state (moments, step count)."""
        self.iterations = 0
        self._state.clear()

    def export_state(self, layout: Layout) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy of the arena's slots cut per parameter: ``{name: {slot: array}}``
        (empty before the first step)."""
        slots = self._state.get(ARENA)
        if slots is None:
            return {}
        return {
            name: {k: v[where].reshape(shape).copy() for k, v in slots.items()}
            for name, where, shape in layout
        }

    def import_state(
        self, layout: Layout, state: Dict[str, Dict[str, np.ndarray]]
    ) -> None:
        """Replace all state with an :meth:`export_state` dict for ``layout``."""
        self._state = {}
        if not state:
            return
        slots = self._state[ARENA] = {}
        total = layout[-1][1].stop  # slices tile the arena in order
        for name, where, _ in layout:
            for k, v in state[name].items():
                slots.setdefault(k, np.zeros(total))[where] = np.asarray(v).reshape(-1)

    @property
    def config(self) -> Dict[str, float]:
        """Hyperparameters of this optimiser (for logging/serialisation)."""
        return {"learning_rate": self.learning_rate}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.config.items())
        return f"{type(self).__name__}({args})"
