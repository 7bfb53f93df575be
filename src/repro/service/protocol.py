"""File-spool protocol between service clients and the daemon.

Layout under the service root directory::

    daemon.json                    # daemon heartbeat manifest
    inbox/<request_id>.json        # submissions (atomic rename)
    rejections/<study_id>.json     # typed admission rejections
    studies/<study_id>/
        request.json               # the admitted specification
        state.json                 # queued|running|completed|failed|...
        cancel                     # flag file: tenant requested cancel
        checkpoint/                # the study's journal + spilled outputs
        result.json                # final Study.as_dict() when completed

Every JSON file is written with :func:`repro.util.durable.write_atomic`
(fsync'd temp file, rename, directory fsync), so a reader never observes
a torn write and a written file survives a crash; the transport works over
any POSIX filesystem — including the shared parallel filesystems of the
paper's clusters, where a login-node daemon and compute-side clients see
the same directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro.hpo.algorithms import ALGORITHMS
from repro.util.durable import write_atomic
from repro.util.knobs import knob, validate
from repro.util.validation import (
    check_at_least,
    check_non_negative,
    check_positive,
    check_type,
)

# Study lifecycle states recorded in state.json.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
SHED = "shed"
#: Suspended warm by the memory watchdog: trials spilled their training
#: state; the daemon re-enqueues the study once pressure clears.
SUSPENDED = "suspended"

#: States from which a study never leaves.
TERMINAL_STATES = frozenset((COMPLETED, FAILED, CANCELLED, SHED))
#: States a restarted daemon must pick back up (crash recovery).
RESUMABLE_STATES = frozenset((QUEUED, RUNNING, SUSPENDED))

DAEMON_FILE = "daemon.json"
INBOX_DIR = "inbox"
REJECTIONS_DIR = "rejections"
STUDIES_DIR = "studies"
REQUEST_FILE = "request.json"
STATE_FILE = "state.json"
RESULT_FILE = "result.json"
CANCEL_FILE = "cancel"
CHECKPOINT_DIR = "checkpoint"


def atomic_write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` to ``path`` so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True).encode())


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read a JSON file, tolerating a concurrent replace (None if gone)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _check_study_id(name: str, value: str) -> None:
    if not value:
        raise ValueError(f"{name} must be non-empty")
    if any(sep in value for sep in ("/", "\\", "..")):
        raise ValueError(f"{name} must be a plain name, got {value!r}")


@dataclass
class StudyRequest:
    """One tenant study: everything the daemon needs to run it.

    ``study_id`` doubles as the idempotency key — re-submitting the
    identical request is a no-op; a *different* payload under the same id
    is rejected with :class:`~repro.service.errors.StudyConflictError`.
    The study's checkpoint cadence is the daemon runtime's
    ``checkpoint_every``.
    """

    study_id: str = knob(check=_check_study_id)
    tenant: str = knob("default", flag="--tenant")
    #: Listing-1-style space dict (lists → categorical, scalars → const).
    space: Dict[str, Any] = knob(factory=dict)
    algorithm: str = knob("grid", choices=list(ALGORITHMS), flag="--algorithm")
    algorithm_kwargs: Dict[str, Any] = knob(factory=dict)
    objective: str = knob(
        "fast_mock", flag="--objective",
        help="objective spec: fast_mock | slow_mock | preemptible_mock | "
        "poison | train | module:function",
    )
    batch_size: Optional[int] = knob(None, check_positive, flag="--batch-size")
    #: Fair-share knobs: higher priority places strictly first; within a
    #: band, long-run CPU share converges to the weight ratio.
    priority: int = knob(0, partial(check_type, types=int), flag="--priority")
    weight: float = knob(1.0, check_positive, flag="--weight")
    #: The study's own resilience budget (fault isolation): per-trial
    #: resubmissions, and how many FAILED trials the study tolerates
    #: before the service terminates it (None = unlimited).
    max_trial_retries: int = knob(
        0, check_non_negative, flag="--max-trial-retries"
    )
    max_failed_trials: Optional[int] = knob(
        None, check_non_negative, flag="--max-failed-trials"
    )
    #: Cap on the tenant's concurrently *running* placements (slots)
    #: across all its studies (None = uncapped).
    max_tenant_slots: Optional[int] = knob(
        None, check_positive, flag="--max-tenant-slots"
    )
    #: See :class:`repro.hpo.stages.StagePlan`.  Content keys carry no
    #: study namespace by design: identical stage prefixes resolve from
    #: the daemon's shared cache *across tenants*.
    stage_epochs: Optional[int] = knob(
        None, partial(check_at_least, low=1), flag="--stage-epochs",
        help="decompose each trial into cacheable train stages of this "
        "many epochs; with --reuse-cache, trials sharing a hyperparameter "
        "prefix share one task per common block (a graph join, no "
        "waiting), and a daemon's disk cache shares them across tenants",
    )

    def __post_init__(self) -> None:
        validate(self)

    def to_payload(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "StudyRequest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in known})

    def matches(self, payload: Mapping[str, Any]) -> bool:
        """Whether a stored ``request.json`` specifies this same study.

        Compares normalised payloads, so a file written by an older
        version (with since-removed keys) still matches.
        """
        try:
            stored = StudyRequest.from_payload(payload)
        except (TypeError, ValueError):
            return False
        return stored.to_payload() == self.to_payload()


class ServicePaths:
    """Path arithmetic for one service root (shared by daemon + client)."""

    def __init__(self, root: Path):
        self.root = Path(root)

    @property
    def daemon_file(self) -> Path:
        return self.root / DAEMON_FILE

    @property
    def inbox(self) -> Path:
        return self.root / INBOX_DIR

    @property
    def rejections(self) -> Path:
        return self.root / REJECTIONS_DIR

    @property
    def studies(self) -> Path:
        return self.root / STUDIES_DIR

    def study_dir(self, study_id: str) -> Path:
        return self.studies / study_id

    def request_file(self, study_id: str) -> Path:
        return self.study_dir(study_id) / REQUEST_FILE

    def state_file(self, study_id: str) -> Path:
        return self.study_dir(study_id) / STATE_FILE

    def result_file(self, study_id: str) -> Path:
        return self.study_dir(study_id) / RESULT_FILE

    def cancel_file(self, study_id: str) -> Path:
        return self.study_dir(study_id) / CANCEL_FILE

    def checkpoint_dir(self, study_id: str) -> Path:
        return self.study_dir(study_id) / CHECKPOINT_DIR

    def rejection_file(self, study_id: str) -> Path:
        return self.rejections / f"{study_id}.json"

    def ensure_layout(self) -> None:
        for d in (self.root, self.inbox, self.rejections, self.studies):
            d.mkdir(parents=True, exist_ok=True)


def resolve_objective(spec: str) -> Callable[..., Any]:
    """Turn an objective spec into a callable.

    Registry names cover the built-in bodies; a ``module:function``
    dotted path loads anything importable (it must be module-level so the
    worker-process backend can ship it to its workers).
    """
    from repro.hpo.objective import (
        fast_mock_objective,
        poison_objective,
        preemptible_mock_objective,
        slow_mock_objective,
        train_experiment,
    )

    registry: Dict[str, Callable[..., Any]] = {
        "fast_mock": fast_mock_objective,
        "slow_mock": slow_mock_objective,
        "preemptible_mock": preemptible_mock_objective,
        "poison": poison_objective,
        "train": train_experiment,
    }
    if spec in registry:
        return registry[spec]
    if ":" in spec:
        module_name, _, func_name = spec.partition(":")
        import importlib

        module = importlib.import_module(module_name)
        try:
            return getattr(module, func_name)
        except AttributeError:
            raise ValueError(
                f"objective {spec!r}: module {module_name!r} has no "
                f"attribute {func_name!r}"
            ) from None
    raise ValueError(
        f"unknown objective {spec!r}; use one of {sorted(registry)} "
        "or a 'module:function' path"
    )
