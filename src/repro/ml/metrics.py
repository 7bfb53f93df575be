"""Classification metrics."""

from __future__ import annotations

import numpy as np


def _labels(y: np.ndarray) -> np.ndarray:
    """Collapse one-hot (2-D) targets/predictions to integer labels."""
    if y.ndim == 2:
        return y.argmax(axis=-1)
    if y.ndim == 1:
        return y
    raise ValueError(f"expected 1-D labels or 2-D one-hot/scores, got ndim={y.ndim}")


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Top-1 accuracy.  Accepts labels or one-hot/score matrices.

    >>> import numpy as np
    >>> accuracy(np.array([0, 1]), np.array([[0.9, 0.1], [0.2, 0.8]]))
    1.0
    """
    t = _labels(np.asarray(y_true))
    p = _labels(np.asarray(y_pred))
    if t.shape != p.shape:
        raise ValueError(f"label shape mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("cannot compute accuracy of zero samples")
    # == float(np.mean(t == p)), without the Python-level mean.
    return float(np.count_nonzero(t == p) / t.size)


def top_k_accuracy(y_true: np.ndarray, y_scores: np.ndarray, k: int = 5) -> float:
    """Fraction of samples whose true label is in the top-``k`` scores."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t = _labels(np.asarray(y_true))
    scores = np.asarray(y_scores)
    if scores.ndim != 2:
        raise ValueError("y_scores must be a 2-D score matrix")
    k = min(k, scores.shape[1])
    # argpartition is O(n) per row vs full sort's O(n log n).
    topk = np.argpartition(scores, -k, axis=1)[:, -k:]
    return float(np.mean((topk == t[:, None]).any(axis=1)))
