"""Stage-decomposed objectives: trials as chains of cacheable tasks.

The monolithic ``experiment`` task (paper Listing 2) trains one config
end to end, so two configs that differ only in ``num_epochs`` repeat
every shared epoch.  This module splits a trial into a *prepare → train
block → … → final* pipeline whose stages are declared ``cacheable``:
the runtime keys each stage by a namespace-free content hash of its
definition and arguments (futures digest as their producer's content
key, so the hash pins the whole upstream chain).  With the reuse cache
on, sibling trials of one study that submit an identical stage are
joined onto one task — so the study's task graph *is* the stage tree,
each ``(prefix, epoch block)`` node trained once however the trials are
submitted — and the :class:`~repro.runtime.reuse.ReuseCache` resolves
identical prefixes of other studies, ``repro serve`` tenants and
processes from disk instead of recomputing them.

Determinism contract: every stage here is a pure function of its
arguments.  In particular the mock training curve is *cumulative* —
the accuracy after epoch ``e`` depends only on the hyperparameters and
``e``, never on the trial's total epoch budget (unlike
:func:`~repro.hpo.objective.fast_mock_objective`, whose gain term reads
the total) — otherwise a 4-epoch prefix computed under a 12-epoch trial
could not be reused verbatim by an 8-epoch sibling.

Staged trials are not preemptible (the block boundaries already bound
lost work to one block) and ignore ``target_accuracy`` (a data-dependent
early exit would make a stage's output depend on more than its inputs).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.runtime.preemption import PREEMPT_CONFIG_KEY
from repro.util.validation import check_positive

#: Config keys consumed by the prepare stage (dataset identity).
PREP_KEYS = ("dataset", "n_train", "n_test", "data_seed")
#: Config keys that control trial *shape* rather than the trained model —
#: excluded from the train-stage params so trials differing only in
#: epoch budget share content keys for their common prefix.
CONTROL_KEYS = (
    "num_epochs", "epochs", "target_accuracy", "_asha_id", PREEMPT_CONFIG_KEY,
)

# ----------------------------------------------------------------------
# Executed-epoch accounting (benchmarks / acceptance tests)
# ----------------------------------------------------------------------
_epoch_lock = threading.Lock()
_executed_epochs = 0


def _count_epochs(n: int) -> None:
    global _executed_epochs
    with _epoch_lock:
        _executed_epochs += int(n)


def executed_epochs() -> int:
    """Epochs actually trained in this process since the last reset.

    Joined and cache-hit stages never run a body, so the delta between
    a cache-off and a cache-on study is exactly the redundant work
    reuse eliminated.
    """
    with _epoch_lock:
        return _executed_epochs


def reset_epoch_counter() -> None:
    """Zero the executed-epoch counter (test / benchmark isolation)."""
    global _executed_epochs
    with _epoch_lock:
        _executed_epochs = 0


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StagePlan:
    """How to decompose trials into cacheable stages.

    Attributes
    ----------
    block_epochs:
        Epochs per train stage.  Smaller blocks share more aggressively
        (any common multiple of the block is reusable) but publish more
        entries; the last block of a trial may be partial.
    objective:
        ``"mock"`` for the deterministic instant curve (scheduling and
        chaos experiments) or ``"train"`` for real model training via
        the :mod:`repro.ml` zoo.
    """

    block_epochs: int = 4
    objective: str = "mock"

    def __post_init__(self) -> None:
        check_positive("block_epochs", self.block_epochs)
        if self.objective not in ("mock", "train"):
            raise ValueError(
                f"objective must be 'mock' or 'train', got {self.objective!r}"
            )

    def blocks(self, epochs: int) -> List[Tuple[int, int]]:
        """``[(start, end), ...]`` block boundaries covering ``epochs``."""
        out: List[Tuple[int, int]] = []
        e = 0
        while e < epochs:
            end = min(e + self.block_epochs, epochs)
            out.append((e, end))
            e = end
        return out


def split_config(config: Mapping[str, Any]) -> Tuple[Dict, Dict, int]:
    """``(prep, params, epochs)`` — the stage-facing view of a config.

    ``prep`` is the dataset identity, ``params`` everything that shapes
    the trained model, ``epochs`` the (excluded-from-params) budget.
    """
    prep = {k: config[k] for k in PREP_KEYS if k in config}
    params = {
        k: v for k, v in config.items()
        if k not in PREP_KEYS and k not in CONTROL_KEYS
    }
    epochs = int(config.get("num_epochs", config.get("epochs", 10)))
    return prep, params, epochs


# ----------------------------------------------------------------------
# Shared prepare stage
# ----------------------------------------------------------------------
def stage_prepare(prep: Mapping[str, Any]) -> Dict[str, Any]:
    """Root of every stage tree: pin the dataset identity.

    Deliberately returns only the *spec* — datasets are re-derived
    deterministically (and process-memoised) inside the train stages, so
    the cache holds kilobytes of state chain, not copies of the arrays.
    """
    return {"epoch": 0, "prep": dict(prep)}


def _check_cursor(state: Mapping[str, Any], start_epoch: int) -> None:
    have = int(state.get("epoch", 0))
    if have != int(start_epoch):
        raise ValueError(
            f"stage chain out of order: state is at epoch {have}, "
            f"block starts at {start_epoch}"
        )


# ----------------------------------------------------------------------
# Mock objective, staged
# ----------------------------------------------------------------------
def _mock_epoch_acc(params: Mapping[str, Any], epoch: int) -> float:
    """Validation accuracy after ``epoch`` completed epochs (cumulative).

    Same flavour as :func:`~repro.hpo.objective.fast_mock_objective`
    (optimizer base + saturating gain − large-batch penalty) but the
    gain saturates in *epochs completed*, not total budget, so the curve
    is prefix-stable by construction.
    """
    optimizer = str(params.get("optimizer", "SGD"))
    base = {"Adam": 0.92, "RMSprop": 0.90, "SGD": 0.86}.get(optimizer, 0.85)
    penalty = 0.01 if int(params.get("batch_size", 32)) >= 128 else 0.0
    gain = 0.08 * (1.0 - float(2.0 ** (-epoch / 8.0)))
    return min(0.999, base + gain - penalty)


def stage_train_mock(
    state: Mapping[str, Any],
    params: Mapping[str, Any],
    start_epoch: int,
    end_epoch: int,
) -> Dict[str, Any]:
    """Advance the deterministic curve from ``start_epoch`` to ``end_epoch``.

    ``epoch_sleep_s`` in the params charges real wall time per epoch so
    speedup benchmarks have something to measure.
    """
    _check_cursor(state, start_epoch)
    sleep_s = float(params.get("epoch_sleep_s", 0.0))
    curve = list(state.get("curve", ()))
    for e in range(int(start_epoch), int(end_epoch)):
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        curve.append(_mock_epoch_acc(params, e + 1))
    _count_epochs(int(end_epoch) - int(start_epoch))
    return {"epoch": int(end_epoch), "prep": state["prep"], "curve": curve}


def stage_final_mock(
    state: Mapping[str, Any], params: Mapping[str, Any]
) -> Dict[str, Any]:
    """Fold the accumulated curve into a trial-result payload."""
    curve = list(state.get("curve", ()))
    acc = curve[-1] if curve else 0.0
    return {
        "val_accuracy": acc,
        "val_loss": 1.0 - acc,
        "history": {
            "epochs": list(range(len(curve))),
            "val_accuracy": curve,
        },
        "epochs_run": int(state.get("epoch", len(curve))),
        "duration_s": 0.0,
        "staged": True,
    }


# ----------------------------------------------------------------------
# Real training, staged
# ----------------------------------------------------------------------
def _load_prep(prep: Mapping[str, Any]):
    from repro.hpo.objective import _DATASET_LOADERS
    from repro.ml.datasets.cache import cached_dataset

    dataset = str(prep.get("dataset", "mnist")).lower()
    try:
        loader = _DATASET_LOADERS[dataset]
    except KeyError:
        raise ValueError(
            f"unknown dataset {dataset!r}; known: {sorted(_DATASET_LOADERS)}"
        ) from None
    return cached_dataset(
        loader,
        n_train=int(prep.get("n_train", 1200)),
        n_test=int(prep.get("n_test", 300)),
        seed=int(prep.get("data_seed", 0)),
    )


def stage_train_real(
    state: Mapping[str, Any],
    params: Mapping[str, Any],
    start_epoch: int,
    end_epoch: int,
) -> Dict[str, Any]:
    """Train one epoch block; carry the full captured model state forward.

    The state chain uses the same
    :meth:`~repro.ml.model.Model.capture_training_state` /
    ``restore_training_state`` round trip as warm preemption resume, so
    a restored block is byte-identical to having never stopped — the
    property that makes cached prefixes interchangeable with computed
    ones.
    """
    from repro.ml import create_model

    _check_cursor(state, start_epoch)
    (x_train, y_train), (x_val, y_val) = _load_prep(state["prep"])
    model = create_model(
        params, input_shape=x_train.shape[1:], seed=int(params.get("seed", 0))
    )
    initial_epoch = 0
    history = None
    if state.get("train_state") is not None:
        if not model.built:
            model.build(x_train.shape[1:])
        initial_epoch, history = model.restore_training_state(
            state["train_state"]
        )
    history = model.fit(
        x_train,
        y_train,
        epochs=int(end_epoch),
        batch_size=int(params.get("batch_size", 32)),
        validation_data=(x_val, y_val),
        initial_epoch=initial_epoch,
        history=history,
    )
    _count_epochs(len(history) - initial_epoch)
    return {
        "epoch": int(end_epoch),
        "prep": dict(state["prep"]),
        "train_state": model.capture_training_state(int(end_epoch), history),
    }


def stage_final_real(
    state: Mapping[str, Any], params: Mapping[str, Any]
) -> Dict[str, Any]:
    """Fold the captured training state into a trial-result payload."""
    train_state = state.get("train_state") or {}
    hist: Dict[str, Any] = dict(train_state.get("history") or {})

    def _final(key: str) -> float:
        vals = hist.get(key) or []
        return float(vals[-1]) if vals else 0.0

    return {
        "val_accuracy": _final("val_accuracy"),
        "val_loss": _final("val_loss"),
        "train_accuracy": _final("accuracy"),
        "train_loss": _final("loss"),
        "history": hist,
        "epochs_run": int(state.get("epoch", 0)),
        "duration_s": 0.0,
        "staged": True,
    }


#: objective name -> (train stage body, final stage body)
STAGE_BODIES = {
    "mock": (stage_train_mock, stage_final_mock),
    "train": (stage_train_real, stage_final_real),
}
