"""Model weight serialisation (npz-based).

Long HPO studies need to persist the winning model ("for long running
applications … it's important to ensure continuity", paper §3); this
module saves/loads :class:`~repro.ml.model.Sequential` weights plus a
minimal architecture fingerprint so mismatched loads fail loudly instead
of silently mangling parameters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.ml.model import Sequential

FORMAT_VERSION = 1


def _fingerprint(model: Sequential) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "layers": [
            {
                "type": type(layer).__name__,
                "name": layer.name,
                "params": {k: list(v.shape) for k, v in layer.params.items()},
            }
            for layer in model.layers
        ],
    }


def save_weights(model: Sequential, path: Union[str, Path]) -> Path:
    """Save all weights of a built model to ``path`` (``.npz``)."""
    if not model.built:
        raise ValueError("cannot save an unbuilt model; call build()/fit() first")
    path = Path(path)
    arrays = {}
    for i, layer in enumerate(model.layers):
        # Buffers (non-trainable state) share the key scheme; their names
        # never collide with a layer's parameter names.
        for key, value in {**layer.params, **layer.buffers}.items():
            arrays[f"{i}:{key}"] = value
    arrays["__meta__"] = np.frombuffer(
        json.dumps(_fingerprint(model)).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)
    # np.savez appends .npz if missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_weights(model: Sequential, path: Union[str, Path]) -> Sequential:
    """Load weights saved by :func:`save_weights` into a built model.

    The model must have the same layer structure (type + parameter
    shapes); mismatches raise ``ValueError`` naming the first offender.
    """
    if not model.built:
        raise ValueError("build the model (same architecture) before loading")
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported weights format {meta.get('format_version')!r}"
            )
        saved_layers = meta["layers"]
        if len(saved_layers) != len(model.layers):
            raise ValueError(
                f"model has {len(model.layers)} layers but file has "
                f"{len(saved_layers)}"
            )
        for i, (layer, saved) in enumerate(zip(model.layers, saved_layers)):
            if type(layer).__name__ != saved["type"]:
                raise ValueError(
                    f"layer {i}: model has {type(layer).__name__}, file has "
                    f"{saved['type']}"
                )
            for key, shape in saved["params"].items():
                if key not in layer.params:
                    raise ValueError(f"layer {i}: file param {key!r} missing in model")
                if list(layer.params[key].shape) != shape:
                    raise ValueError(
                        f"layer {i} param {key!r}: shape {shape} in file vs "
                        f"{list(layer.params[key].shape)} in model"
                    )
                layer.params[key][...] = data[f"{i}:{key}"]
            for key, buffer in layer.buffers.items():
                if f"{i}:{key}" in data.files:  # absent in older files
                    buffer[...] = data[f"{i}:{key}"]
    return model
