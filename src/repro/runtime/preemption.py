"""Cooperative trial preemption: suspend warm, resume exactly where left.

Every pressure path of the runtime used to *kill* work: the service
memory watchdog shed queued studies, spot-preemption notices and drain
deadlines lost in-flight epochs to lineage recompute, and multi-fidelity
schedulers could only stop trials at rung barriers.  This module makes
"stop" mean "suspend": a :class:`PreemptionController` raises a per-trial
flag, the trial's checkpoint-epoch callback (riding ``Sequential.fit``'s
``on_epoch_end`` hook) observes it, spills model + optimiser + epoch
cursor as one self-verifying entry through
:class:`~repro.runtime.checkpoint.CheckpointStore`, and stops warm; the
HPO runner resubmits the trial as a resumable task that restores the
spill and continues from the cursor — byte-identical to a run that was
never suspended (the spill carries both RNG streams, the optimiser's
moment state and step counter, and the accumulated history).

The flag transport is a flag *file* next to the spill (plus an
in-process fast path), so cooperative suspension works across every
executor backend — in-driver threads, supervised worker processes
and the simulated executor — without any channel beyond the filesystem the spill
machinery already requires.  A crash mid-spill leaves the previous
spill (or none), and a spill that fails its digest is treated as
missing: the trial restarts cold, which is slower but never wrong.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro.runtime.checkpoint import CheckpointCorruptError, CheckpointStore
from repro.util.logging_utils import get_logger

_log = get_logger("runtime.preemption")

#: Reserved config key carrying a :class:`PreemptContext` spec into the
#: objective.  The runner injects it into the *submitted* copy of a
#: trial's config only — ``trial.config`` (and therefore algorithms,
#: reports, and result dumps) never see it.
PREEMPT_CONFIG_KEY = "__preempt__"
#: Marker key on an objective payload meaning "this trial suspended
#: cooperatively; resubmit me to resume from the spilled epoch cursor".
SUSPENDED_PAYLOAD_KEY = "__suspended__"

#: In-process suspension flags (fast path for the threads backend and
#: for the controller's own bookkeeping).  Keyed by preempt key; the
#: flag file under the spill directory is the cross-process truth.
_LOCAL_FLAGS: set = set()
_LOCAL_LOCK = threading.Lock()


def _flag_locally(key: str) -> None:
    with _LOCAL_LOCK:
        _LOCAL_FLAGS.add(key)


def _unflag_locally(key: str) -> None:
    with _LOCAL_LOCK:
        _LOCAL_FLAGS.discard(key)


def _flagged_locally(key: str) -> bool:
    with _LOCAL_LOCK:
        return key in _LOCAL_FLAGS


class PreemptContext:
    """Picklable per-trial handle the objective uses to cooperate.

    Travels inside the submitted config under :data:`PREEMPT_CONFIG_KEY`
    as a plain-dict *spec* (stable under task-key canonicalisation), so
    the deterministic key of a resumed task extends the original trial's
    identity instead of depending on live object state.
    """

    __slots__ = ("key", "directory", "every")

    def __init__(self, key: str, directory: Path, every: int = 1):
        if every < 1:
            raise ValueError(f"checkpoint-epoch cadence must be >= 1, got {every}")
        self.key = str(key)
        self.directory = Path(directory)
        self.every = int(every)

    # -- wire format ----------------------------------------------------
    def spec(self) -> Dict[str, Any]:
        """Plain-dict form embedded in the submitted config."""
        return {"key": self.key, "dir": str(self.directory), "every": self.every}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "PreemptContext":
        return cls(
            str(spec["key"]), Path(str(spec["dir"])), int(spec.get("every", 1))
        )

    @classmethod
    def from_config(cls, config: Any) -> Optional["PreemptContext"]:
        """Extract the context from an objective's config (None if absent)."""
        if not isinstance(config, Mapping):
            return None
        spec = config.get(PREEMPT_CONFIG_KEY)
        if not isinstance(spec, Mapping):
            return None
        try:
            return cls.from_spec(spec)
        except (KeyError, TypeError, ValueError):
            return None

    # -- flag protocol --------------------------------------------------
    @property
    def flag_path(self) -> Path:
        return self.directory / f"{self.key}.preempt"

    def should_suspend(self) -> bool:
        """Polled once per checkpoint epoch from inside the training loop."""
        if _flagged_locally(self.key):
            return True
        return self.flag_path.exists()

    # -- spill protocol -------------------------------------------------
    def _store(self) -> CheckpointStore:
        return CheckpointStore(self.directory, cadence=1)

    def spill(self, state: Mapping[str, Any]) -> bool:
        """Atomically persist the training state (supersedes prior spills)."""
        return self._store().save(self.key, dict(state), overwrite=True)

    def load(self) -> Optional[Dict[str, Any]]:
        """The last spilled training state; None when absent *or* torn.

        Corrupt == missing: a spill that fails its digest (or does not
        unpickle) is discarded and the trial restarts cold —
        re-executed epochs, never a wrong restore.
        """
        store = self._store()
        try:
            state = store.load_verified(self.key)
        except FileNotFoundError:
            return None
        except CheckpointCorruptError as exc:
            _log.warning("suspend spill %s torn (%s); restarting cold", self.key, exc)
            store.remove(self.key)
            return None
        return state if isinstance(state, dict) else None

    def clear(self) -> None:
        """Drop the flag (spills are kept — rung promotions resume them)."""
        _unflag_locally(self.key)
        try:
            self.flag_path.unlink()
        except OSError:
            pass


class PreemptionController:
    """Runtime-side registry of preemptible trials and their flags.

    ``suspend_trial``/``resume_trial`` are the primitive pair; the
    study- and node-scoped sweeps (``suspend_study`` for the service
    memory watchdog, ``suspend_node`` for drains and spot-preemption
    notices) fan out over the registry of currently running trials the
    HPO runner maintains via :meth:`register`/:meth:`unregister`.
    """

    def __init__(
        self,
        log=None,
        clock: Optional[Callable[[], float]] = None,
        max_suspended: Optional[int] = None,
    ):
        self._log = log
        self._clock = clock or (lambda: 0.0)
        self.max_suspended = max_suspended
        self._lock = threading.Lock()
        #: preempt key -> (context, invocation) of a registered trial.
        self._registry: Dict[str, tuple] = {}
        #: keys currently flagged for suspension.
        self._suspended: set = set()
        #: lifetime counters (surfaced via :meth:`stats`).
        self.suspends_requested = 0
        self.suspends_refused = 0
        self.resumes_requested = 0

    # ------------------------------------------------------------------
    def register(self, context: PreemptContext, invocation: Any) -> None:
        """Track a submitted preemptible trial (overwrites on resubmit)."""
        with self._lock:
            self._registry[context.key] = (context, invocation)

    def unregister(self, key: str) -> None:
        """Drop a terminally resolved trial from the registry."""
        with self._lock:
            self._registry.pop(key, None)
            self._suspended.discard(key)

    def registered(self) -> Dict[str, Any]:
        """Snapshot of key -> invocation for the registered trials."""
        with self._lock:
            return {k: inv for k, (_, inv) in self._registry.items()}

    # ------------------------------------------------------------------
    def suspend_trial(self, key: str, reason: str = "") -> bool:
        """Flag one trial to suspend at its next checkpoint epoch.

        Returns False when the key is unknown or the controller is at
        ``max_suspended`` concurrently flagged trials (the caller falls
        back to its pre-preemption path).  Idempotent while flagged.
        """
        with self._lock:
            entry = self._registry.get(key)
            if entry is None:
                return False
            if key in self._suspended:
                return True
            if (
                self.max_suspended is not None
                and len(self._suspended) >= self.max_suspended
            ):
                self.suspends_refused += 1
                return False
            context, invocation = entry
            self._suspended.add(key)
            self.suspends_requested += 1
        _flag_locally(key)
        try:
            context.directory.mkdir(parents=True, exist_ok=True)
            context.flag_path.touch()
        except OSError as exc:  # flag file best-effort; in-process flag holds
            _log.warning("could not write preempt flag for %s: %s", key, exc)
        if self._log is not None:
            self._log.record(
                self._clock(), "trial_suspended",
                task_label=getattr(invocation, "label", ""),
                node=getattr(invocation, "node", "") or "",
                detail=f"key={key}" + (f" reason={reason}" if reason else ""),
            )
        return True

    def resume_trial(self, key: str) -> None:
        """Clear a trial's suspension flag so its resubmission runs on."""
        with self._lock:
            entry = self._registry.get(key)
            self._suspended.discard(key)
            self.resumes_requested += 1
        _unflag_locally(key)
        if entry is not None:
            entry[0].clear()

    def is_suspended(self, key: str) -> bool:
        with self._lock:
            return key in self._suspended

    def suspended_count(self) -> int:
        with self._lock:
            return len(self._suspended)

    # ------------------------------------------------------------------
    def suspend_study(self, study_id: str, reason: str = "") -> int:
        """Flag every registered trial of ``study_id``.

        Returns the number of trials *newly* flagged (already-suspended
        ones are left alone and not counted).
        """
        with self._lock:
            keys = [
                k for k, (_, inv) in self._registry.items()
                if getattr(inv, "study", "") == study_id
                and k not in self._suspended
            ]
        return sum(
            1 for k in keys
            if self.suspend_trial(k, reason=reason or f"study={study_id}")
        )

    def suspend_node(self, node: str, reason: str = "") -> int:
        """Flag every registered trial running on ``node`` (drain path).

        Returns the number of trials newly flagged, like
        :meth:`suspend_study`.
        """
        with self._lock:
            keys = [
                k for k, (_, inv) in self._registry.items()
                if (getattr(inv, "node", "") or "") == node
                and k not in self._suspended
            ]
        return sum(
            1 for k in keys
            if self.suspend_trial(k, reason=reason or f"node={node}")
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "registered": len(self._registry),
                "flagged": len(self._suspended),
                "suspends_requested": self.suspends_requested,
                "suspends_refused": self.suspends_refused,
                "resumes_requested": self.resumes_requested,
            }


def clear_local_flags() -> None:
    """Reset the in-process flag set (test isolation)."""
    with _LOCAL_LOCK:
        _LOCAL_FLAGS.clear()


def strip_preempt(config: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``config`` without the reserved preemption key."""
    return {k: v for k, v in config.items() if k != PREEMPT_CONFIG_KEY}


__all__ = [
    "PREEMPT_CONFIG_KEY",
    "SUSPENDED_PAYLOAD_KEY",
    "PreemptContext",
    "PreemptionController",
    "clear_local_flags",
    "strip_preempt",
]
