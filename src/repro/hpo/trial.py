"""Trials and studies.

Borrowing the paper's §2.2 description of Tune: "each training is
referred to as a trial and an experiment is a collection of trials" —
here a :class:`Trial` is one training run with one config, and a
:class:`Study` collects them with result queries and exports.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union


class TrialStatus(str, enum.Enum):
    """Lifecycle of a trial."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    PRUNED = "pruned"  # stopped early by a study-level stopper


@dataclass
class TrialResult:
    """Outcome of one training run.

    ``history`` maps metric name → per-epoch values (the paper's tasks
    return "validation loss or accuracy and training history").
    """

    val_accuracy: float
    val_loss: float = float("nan")
    train_accuracy: float = float("nan")
    train_loss: float = float("nan")
    history: Dict[str, List[float]] = field(default_factory=dict)
    epochs_run: int = 0
    duration_s: float = 0.0
    node: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "TrialResult":
        """Build from the dict an objective function returns.

        Required key: ``val_accuracy``.  Everything else is optional.
        """
        if "val_accuracy" not in payload:
            raise KeyError(
                "objective result must contain 'val_accuracy'; got keys "
                f"{sorted(payload)}"
            )
        known = {
            k: payload[k]
            for k in (
                "val_accuracy", "val_loss", "train_accuracy", "train_loss",
                "history", "epochs_run", "duration_s", "node",
            )
            if k in payload
        }
        extra = {
            k: v for k, v in payload.items() if k not in known
        }
        return cls(**known, extra=extra)


@dataclass
class Trial:
    """One hyperparameter configuration and its (eventual) result."""

    trial_id: int
    config: Dict[str, Any]
    status: TrialStatus = TrialStatus.PENDING
    result: Optional[TrialResult] = None
    error: Optional[str] = None

    @property
    def val_accuracy(self) -> float:
        """Headline metric (NaN while unfinished)."""
        return self.result.val_accuracy if self.result else float("nan")

    def describe_config(self) -> str:
        """Compact config rendering for tables, e.g. ``Adam/e50/b64``."""
        parts = []
        for key, value in self.config.items():
            short = {"optimizer": "", "num_epochs": "e", "batch_size": "b"}.get(
                key, f"{key}="
            )
            parts.append(f"{short}{value}")
        return "/".join(parts)


class Study:
    """A collection of trials plus aggregate queries and exports."""

    def __init__(self, name: str = "study"):
        self.name = name
        self.trials: List[Trial] = []
        #: Wall-clock (or virtual) duration of the whole HPO run, seconds.
        self.total_duration_s: float = 0.0
        #: Extra metadata (cluster name, algorithm, …) set by runners.
        self.metadata: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def new_trial(self, config: Dict[str, Any]) -> Trial:
        """Create, register and return a new PENDING trial."""
        trial = Trial(trial_id=len(self.trials) + 1, config=dict(config))
        self.trials.append(trial)
        return trial

    def completed(self) -> List[Trial]:
        return [t for t in self.trials if t.status == TrialStatus.COMPLETED]

    def best_trial(self) -> Trial:
        """Completed trial with the highest validation accuracy."""
        done = self.completed()
        if not done:
            raise ValueError("study has no completed trials")
        return max(done, key=lambda t: t.val_accuracy)

    def __len__(self) -> int:
        return len(self.trials)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def table(self, limit: Optional[int] = None) -> str:
        """Text table of trials sorted by accuracy (best first)."""
        done = sorted(
            self.completed(), key=lambda t: -t.val_accuracy
        )
        rows = [
            [
                t.trial_id,
                t.describe_config(),
                t.val_accuracy,
                t.result.val_loss if t.result else float("nan"),
                t.result.epochs_run if t.result else 0,
                t.result.node or "-" if t.result else "-",
            ]
            for t in done[: limit or len(done)]
        ]
        from repro.util.ascii_plot import table

        return table(
            ["trial", "config", "val_acc", "val_loss", "epochs", "node"],
            rows,
            title=f"study {self.name!r}: {len(done)}/{len(self.trials)} trials "
            f"completed, total {self.total_duration_s:.1f}s",
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dump of the whole study."""
        return {
            "name": self.name,
            "total_duration_s": self.total_duration_s,
            "metadata": dict(self.metadata),
            "trials": [
                {
                    "trial_id": t.trial_id,
                    "config": t.config,
                    "status": t.status.value,
                    "error": t.error,
                    "result": None
                    if t.result is None
                    else {
                        "val_accuracy": t.result.val_accuracy,
                        "val_loss": t.result.val_loss,
                        "train_accuracy": t.result.train_accuracy,
                        "train_loss": t.result.train_loss,
                        "history": t.result.history,
                        "epochs_run": t.result.epochs_run,
                        "duration_s": t.result.duration_s,
                        "node": t.result.node,
                    },
                }
                for t in self.trials
            ],
        }

    def save_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`as_dict` to ``path``."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2), encoding="utf-8")
        return path

    def save_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per trial (config columns + headline metrics)."""
        path = Path(path)
        config_keys: List[str] = []
        for t in self.trials:
            for k in t.config:
                if k not in config_keys:
                    config_keys.append(k)
        header = ["trial_id", "status", *config_keys, "val_accuracy",
                  "val_loss", "epochs_run", "duration_s", "node"]
        lines = [",".join(header)]
        for t in self.trials:
            r = t.result
            row = [
                str(t.trial_id),
                t.status.value,
                *(str(t.config.get(k, "")) for k in config_keys),
                f"{t.val_accuracy:.6f}" if r else "",
                f"{r.val_loss:.6f}" if r else "",
                str(r.epochs_run) if r else "",
                f"{r.duration_s:.3f}" if r else "",
                (r.node or "") if r else "",
            ]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
