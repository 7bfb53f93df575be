"""The ``create_model`` factory from the paper's Listing 2.

"New model created every time with different parameters.  Model parameters
can be set here from the config file (i.e. optimisers)."  The factory maps
an HPO config dict to a compiled :class:`~repro.ml.model.Sequential`: an
MLP for flat/small-greyscale inputs, a small CNN for multi-channel images.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.ml.layers import Dense, Flatten, ReLU
from repro.ml.model import Sequential
from repro.util.validation import check_positive


def _mlp(
    input_shape: Tuple[int, ...],
    n_classes: int,
    hidden_units: int,
    dropout: float,
    seed: int,
) -> Sequential:
    model = Sequential(seed=seed)
    model.add(Flatten())
    model.add(Dense(hidden_units))
    model.add(ReLU())
    if dropout > 0:
        from repro.ml.layers import Dropout

        model.add(Dropout(dropout))
    model.add(Dense(max(16, hidden_units // 2)))
    model.add(ReLU())
    model.add(Dense(n_classes))
    model.build(input_shape)
    return model


def _cnn(
    input_shape: Tuple[int, ...],
    n_classes: int,
    filters: int,
    dropout: float,
    seed: int,
    batch_norm: bool = False,
) -> Sequential:
    from repro.ml.layers import BatchNorm, Conv2D, Dropout, MaxPool2D

    model = Sequential(seed=seed)
    model.add(Conv2D(filters, kernel_size=3, padding="same"))
    if batch_norm:
        model.add(BatchNorm())
    model.add(ReLU())
    model.add(MaxPool2D(2))
    model.add(Conv2D(filters * 2, kernel_size=3, padding="same"))
    if batch_norm:
        model.add(BatchNorm())
    model.add(ReLU())
    model.add(MaxPool2D(2))
    model.add(Flatten())
    model.add(Dense(64))
    model.add(ReLU())
    if dropout > 0:
        model.add(Dropout(dropout))
    model.add(Dense(n_classes))
    model.build(input_shape)
    return model


def create_model(
    config: Mapping[str, object],
    input_shape: Tuple[int, ...],
    n_classes: int = 10,
    seed: Optional[int] = None,
) -> Sequential:
    """Build and compile a model for an HPO ``config``.

    Recognised config keys (all optional except none):

    * ``optimizer`` — ``"SGD"``/``"Adam"``/``"RMSprop"`` (Listing 1);
    * ``learning_rate`` — forwarded to the optimiser;
    * ``architecture`` — ``"mlp"``, ``"cnn"`` or ``"auto"`` (default:
      CNN for multi-channel images, MLP otherwise);
    * ``hidden_units`` (MLP) / ``filters`` (CNN) — width knobs;
    * ``batch_norm`` (CNN) — insert BatchNorm after each convolution;
    * ``dropout`` — dropout rate after the widest layer;
    * ``seed`` — overridden by the explicit ``seed`` argument if given.

    Returns a compiled :class:`Sequential` ready for ``fit``.
    """
    check_positive("n_classes", n_classes)
    if len(input_shape) not in (1, 3):
        raise ValueError(
            f"input_shape must be flat (f,) or image (h, w, c), got {input_shape}"
        )
    arch = str(config.get("architecture", "auto")).lower()
    if arch == "auto":
        is_image = len(input_shape) == 3
        arch = "cnn" if (is_image and int(input_shape[2]) > 1) else "mlp"
    model_seed = int(seed if seed is not None else config.get("seed", 0))
    dropout = float(config.get("dropout", 0.0))

    if arch == "mlp":
        hidden = int(config.get("hidden_units", 64))
        check_positive("hidden_units", hidden)
        model = _mlp(input_shape, n_classes, hidden, dropout, model_seed)
    elif arch == "cnn":
        if len(input_shape) != 3:
            raise ValueError("cnn architecture requires an image input_shape")
        filters = int(config.get("filters", 8))
        check_positive("filters", filters)
        batch_norm = bool(config.get("batch_norm", False))
        model = _cnn(
            input_shape, n_classes, filters, dropout, model_seed,
            batch_norm=batch_norm,
        )
    else:
        raise ValueError(f"unknown architecture {arch!r}; use mlp/cnn/auto")

    optimizer = str(config.get("optimizer", "SGD"))
    lr = config.get("learning_rate")
    model.compile(
        optimizer=optimizer,
        loss="categorical_crossentropy",
        learning_rate=float(lr) if lr is not None else None,
    )
    return model
