"""The :class:`Sequential` model — a Keras-flavoured train/eval loop.

The model wires layers, a loss and an optimiser together and records a
per-epoch :class:`History` — exactly what the paper's ``experiment`` task
returns ("the result … can be a performance measure such as validation
loss or accuracy and training history", §4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ml.callbacks import Callback
from repro.ml.data import iterate_batches
from repro.ml.layers.base import Layer
from repro.ml.layers.activations import softmax
from repro.ml.losses import Loss, get_loss
from repro.ml.metrics import accuracy
from repro.ml.optimizers import Optimizer, get_optimizer
from repro.ml.optimizers.base import ARENA, Layout
from repro.util.seeding import rng_from
from repro.util.validation import check_positive


class History:
    """Per-epoch training history (mirrors ``keras.callbacks.History``).

    Attributes
    ----------
    epochs:
        List of completed epoch indices (0-based).
    metrics:
        Mapping from metric name (``loss``, ``accuracy``, ``val_loss``,
        ``val_accuracy``) to one value per completed epoch.
    """

    def __init__(self) -> None:
        self.epochs: List[int] = []
        self.metrics: Dict[str, List[float]] = {}

    def append(self, epoch: int, logs: Dict[str, float]) -> None:
        """Record one epoch's metrics."""
        self.epochs.append(epoch)
        for key, value in logs.items():
            self.metrics.setdefault(key, []).append(float(value))

    def best(self, metric: str, mode: str = "max") -> Tuple[int, float]:
        """Return ``(epoch, value)`` of the best recorded value of ``metric``."""
        values = self.metrics.get(metric)
        if not values:
            raise KeyError(f"no values recorded for metric {metric!r}")
        arr = np.asarray(values)
        idx = int(arr.argmax() if mode == "max" else arr.argmin())
        return self.epochs[idx], float(arr[idx])

    def final(self, metric: str) -> float:
        """Last recorded value of ``metric``."""
        values = self.metrics.get(metric)
        if not values:
            raise KeyError(f"no values recorded for metric {metric!r}")
        return values[-1]

    def as_dict(self) -> Dict[str, List[float]]:
        """Plain-dict view (JSON-serialisable)."""
        return {"epochs": list(self.epochs), **{k: list(v) for k, v in self.metrics.items()}}

    def __len__(self) -> int:
        return len(self.epochs)


class Sequential:
    """A linear stack of layers.

    Parameters
    ----------
    layers:
        Layers in order; may also be added later with :meth:`add`.
    seed:
        Seed for weight init and shuffling (deterministic trials).

    Example
    -------
    >>> from repro.ml import Dense, ReLU
    >>> m = Sequential([Dense(16), ReLU(), Dense(3)], seed=0)
    >>> _ = m.compile(optimizer="sgd", loss="categorical_crossentropy")
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None, seed: int = 0):
        self.layers: List[Layer] = list(layers or [])
        self.seed = int(seed)
        self.optimizer: Optional[Optimizer] = None
        self.loss: Optional[Loss] = None
        self.built = False
        self.stop_training = False
        self._from_logits = True
        self.history: Optional[History] = None
        self._build_rng = None
        self._fit_rng = None
        self._pending_fit_rng_state = None
        # Set by build(): the arenas every layer's params/grads view into.
        self._step_triple: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self._head: Optional[Layer] = None  # first parameter layer
        self._tail: List[Layer] = []  # the layers after it, last first

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer (before :meth:`build`); returns self."""
        if self.built:
            raise RuntimeError("cannot add layers after the model is built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Build all layers for ``input_shape`` (without the batch axis)."""
        if not self.layers:
            raise RuntimeError("model has no layers")
        rng = rng_from(self.seed, "model-init")
        # Retained so suspended trials can restore the shared build-time
        # generator (stochastic layers like Dropout keep drawing from it).
        self._build_rng = rng
        shape = tuple(int(d) for d in input_shape)
        for layer in self.layers:
            layer.build(shape, rng)
            assert layer.output_shape is not None
            shape = layer.output_shape
        self._bind_arenas()
        self.built = True

    def _bind_arenas(self) -> None:
        """Move all parameters into one flat array, gradients into another.

        The two arenas are halves of one allocation: as two arrays of a
        28x28-input MLP's size, the parameter arena came back in freshly
        mapped pages on every build under glibc's malloc, and copying
        the parameters in took about a hundred page faults.
        """
        entries = [
            (i, layer, key, p)
            for i, layer in enumerate(self.layers)
            for key, p in layer.params.items()
        ]
        total = sum(entry[3].size for entry in entries)
        block = np.empty(2 * total)
        params, grads = block[:total], block[total:]
        grads[...] = 0.0
        offset = 0
        for _, layer, key, p in entries:
            end = offset + p.size
            layer.bind(
                key, params[offset:end].reshape(p.shape),
                grads[offset:end].reshape(p.shape),
            )
            offset = end
        self._step_triple = [(ARENA, params, grads)] if total else []
        # Nothing consumes dL/d(input) of the first parameter layer, so
        # the backward pass ends there without computing it.
        first = entries[0][0] if entries else None
        self._head = None if first is None else self.layers[first]
        self._tail = self.layers[::-1] if first is None else self.layers[:first:-1]

    def _arena_layout(self) -> Layout:
        """Name, arena slice and shape of each parameter, in arena order."""
        layout = []
        offset = 0
        for i, layer in enumerate(self.layers):
            for key, p in layer.params.items():
                end = offset + p.size
                layout.append((f"{i}:{layer.name}/{key}", slice(offset, end), p.shape))
                offset = end
        return layout

    def __setstate__(self, state: Dict) -> None:
        # Pickling and deepcopy turn the views into separate arrays:
        # give the copy arenas of its own, filled from those arrays.
        self.__dict__.update(state)
        if self.built:
            self._bind_arenas()

    def compile(
        self,
        optimizer: Union[str, Optimizer] = "sgd",
        loss: Union[str, Loss] = "categorical_crossentropy",
        learning_rate: Optional[float] = None,
    ) -> "Sequential":
        """Attach an optimiser and a loss; returns self.

        ``learning_rate`` is a convenience forwarded to the optimiser
        factory when ``optimizer`` is a name.
        """
        kwargs = {}
        if learning_rate is not None and isinstance(optimizer, str):
            kwargs["learning_rate"] = learning_rate
        self.optimizer = get_optimizer(optimizer, **kwargs)
        self.loss = get_loss(loss)
        self._from_logits = getattr(self.loss, "from_logits", False)
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns raw model output (logits)."""
        if not self.built:
            self.build(x.shape[1:])
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities for ``x`` (softmax applied if loss is logits-based)."""
        check_positive("batch_size", batch_size)
        outs = []
        for start in range(0, x.shape[0], batch_size):
            out = self.forward(x[start : start + batch_size], training=False)
            outs.append(softmax(out) if self._from_logits else out)
        return np.concatenate(outs, axis=0)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> Dict[str, float]:
        """Return ``{"loss": …, "accuracy": …}`` over ``(x, y)``."""
        if self.loss is None:
            raise RuntimeError("call compile() before evaluate()")
        check_positive("batch_size", batch_size)
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on zero samples")
        total_loss = 0.0
        correct = 0.0
        for start in range(0, n, batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            out = self.forward(xb, training=False)
            total_loss += self.loss.value(yb, out) * xb.shape[0]
            correct += accuracy(yb, out) * xb.shape[0]
        return {"loss": total_loss / n, "accuracy": correct / n}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> Dict[str, float]:
        """One forward/backward/update step; returns batch loss & accuracy."""
        if self.optimizer is None or self.loss is None:
            raise RuntimeError("call compile() before training")
        out = self.forward(x, training=True)
        loss_value, grad = self.loss.value_and_gradient(y, out)
        for layer in self._tail:
            grad = layer.backward(grad)
        if self._head is not None:
            self._head.backward(grad, need_input_grad=False)
        self.optimizer.apply_gradients(self._step_triple)
        return {"loss": loss_value, "accuracy": accuracy(y, out)}

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        shuffle: bool = True,
        verbose: bool = False,
        initial_epoch: int = 0,
        history: Optional[History] = None,
    ) -> History:
        """Train for epochs ``initial_epoch .. epochs-1``; returns the history.

        Honors ``self.stop_training`` set by callbacks (early stopping).
        ``initial_epoch``/``history`` let a resumed trial continue a prior
        run: after :meth:`restore_training_state` the shuffle stream picks
        up mid-sequence and the returned :class:`History` accumulates onto
        the restored epochs, so a suspended-then-resumed run is
        byte-identical to one that never stopped.
        """
        check_positive("epochs", epochs)
        check_positive("batch_size", batch_size)
        if initial_epoch < 0 or initial_epoch >= epochs:
            raise ValueError(
                f"initial_epoch must be in [0, {epochs}), got {initial_epoch}"
            )
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if not self.built:
            self.build(x.shape[1:])
        callbacks = list(callbacks or [])
        for cb in callbacks:
            cb.set_model(self)
        history = history if history is not None else History()
        self.history = history
        self.stop_training = False
        shuffle_rng = rng_from(self.seed, "fit-shuffle")
        if self._pending_fit_rng_state is not None:
            shuffle_rng.bit_generator.state = self._pending_fit_rng_state
            self._pending_fit_rng_state = None
        self._fit_rng = shuffle_rng
        for cb in callbacks:
            cb.on_train_begin()
        for epoch in range(initial_epoch, epochs):
            for cb in callbacks:
                cb.on_epoch_begin(epoch)
            epoch_loss = 0.0
            epoch_correct = 0.0
            n_seen = 0
            for xb, yb in iterate_batches(
                x, y, batch_size, shuffle=shuffle, rng=shuffle_rng
            ):
                logs = self.train_on_batch(xb, yb)
                epoch_loss += logs["loss"] * xb.shape[0]
                epoch_correct += logs["accuracy"] * xb.shape[0]
                n_seen += xb.shape[0]
            logs = {
                "loss": epoch_loss / n_seen,
                "accuracy": epoch_correct / n_seen,
            }
            if validation_data is not None:
                val = self.evaluate(*validation_data, batch_size=batch_size)
                logs["val_loss"] = val["loss"]
                logs["val_accuracy"] = val["accuracy"]
            history.append(epoch, logs)
            if verbose:
                rendered = " ".join(f"{k}={v:.4f}" for k, v in logs.items())
                print(f"epoch {epoch + 1}/{epochs}: {rendered}")
            for cb in callbacks:
                cb.on_epoch_end(epoch, logs)
            if self.stop_training:
                break
        for cb in callbacks:
            cb.on_train_end()
        return history

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Copy of all layer parameters (list aligned with ``self.layers``)."""
        return [{k: v.copy() for k, v in layer.params.items()} for layer in self.layers]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} weight dicts, got {len(weights)}"
            )
        for layer, w in zip(self.layers, weights):
            for key, value in w.items():
                if key not in layer.params:
                    raise KeyError(f"layer {layer.name!r} has no param {key!r}")
                layer.params[key][...] = value

    # ------------------------------------------------------------------
    # Suspend / resume
    # ------------------------------------------------------------------
    def capture_training_state(self, epoch: int, history: Optional[History] = None) -> Dict:
        """Everything needed to resume training mid-run, as a picklable dict.

        ``epoch`` is the cursor: the number of *completed* epochs (the
        resumed fit passes it as ``initial_epoch``).  Captures weights,
        non-trainable layer buffers (a ``"buffers"`` key, present only
        when some layer has any), the optimiser's step counter and moment
        state in per-parameter form, both RNG streams
        (build-time — shared by stochastic layers — and shuffle), and the
        accumulated history, so a restore is byte-identical to having
        never stopped.
        """
        if not self.built or self.optimizer is None:
            raise RuntimeError("cannot capture state before build() and compile()")
        history = history if history is not None else self.history
        state: Dict = {
            "epoch": int(epoch),
            "weights": self.get_weights(),
            "optimizer_iterations": int(self.optimizer.iterations),
            "optimizer_state": self.optimizer.export_state(self._arena_layout()),
            "history": history.as_dict() if history is not None else None,
        }
        if any(layer.buffers for layer in self.layers):
            state["buffers"] = [
                {k: v.copy() for k, v in layer.buffers.items()}
                for layer in self.layers
            ]
        if self._build_rng is not None:
            state["build_rng_state"] = self._build_rng.bit_generator.state
        if self._fit_rng is not None:
            state["fit_rng_state"] = self._fit_rng.bit_generator.state
        return state

    def restore_training_state(self, state: Dict) -> Tuple[int, History]:
        """Load a :meth:`capture_training_state` dict; returns (epoch, history).

        The model must already be built and compiled with the same
        architecture and optimiser.  The returned pair is what the
        resumed ``fit`` call takes as ``initial_epoch``/``history``.
        """
        if not self.built or self.optimizer is None:
            raise RuntimeError("cannot restore state before build() and compile()")
        self.set_weights(state["weights"])
        self.optimizer.iterations = int(state["optimizer_iterations"])
        self.optimizer.import_state(self._arena_layout(), state["optimizer_state"])
        # Absent in states of buffer-free models and in older spills.
        for layer, saved in zip(self.layers, state.get("buffers", [])):
            for key, value in saved.items():
                layer.buffers[key][...] = value
        if state.get("build_rng_state") is not None and self._build_rng is not None:
            self._build_rng.bit_generator.state = state["build_rng_state"]
        if state.get("fit_rng_state") is not None:
            # Consumed by the next fit() call after it recreates the stream.
            self._pending_fit_rng_state = state["fit_rng_state"]
        history = History()
        dumped = state.get("history") or {}
        epochs = dumped.get("epochs", [])
        for i, ep in enumerate(epochs):
            logs = {
                k: vals[i]
                for k, vals in dumped.items()
                if k != "epochs" and i < len(vals)
            }
            history.append(ep, logs)
        self.history = history
        return int(state["epoch"]), history

    @property
    def n_params(self) -> int:
        """Total learnable parameter count."""
        return sum(layer.n_params for layer in self.layers)

    def summary(self) -> str:
        """Keras-style text summary of the architecture."""
        lines = [f"{'layer':<24}{'output shape':<20}{'params':>10}"]
        lines.append("-" * 54)
        for layer in self.layers:
            shape = str(layer.output_shape) if layer.built else "?"
            lines.append(f"{layer.name:<24}{shape:<20}{layer.n_params:>10}")
        lines.append("-" * 54)
        lines.append(f"total params: {self.n_params}")
        return "\n".join(lines)
