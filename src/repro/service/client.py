"""Thin client for the service daemon (submit / watch / cancel / status).

Every operation is a file read or an atomic rename under the service
root, so the client works from any process that shares the filesystem
with the daemon — including across a daemon crash and restart.  All
waits carry client-side timeouts and raise
:class:`~repro.service.errors.ClientTimeoutError`; submission is
idempotent, so timed-out calls are safe to retry verbatim.
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.service import protocol as proto
from repro.service.errors import (
    ClientTimeoutError,
    StudyNotFoundError,
    error_for_code,
)
from repro.util.durable import write_atomic


class ServiceClient:
    """Client handle over one service root directory."""

    def __init__(
        self,
        root: Union[str, Path],
        timeout_s: float = 30.0,
        poll_s: float = 0.05,
    ):
        self.paths = proto.ServicePaths(Path(root))
        self.timeout_s = timeout_s
        self.poll_s = poll_s

    # ------------------------------------------------------------------
    def submit(
        self,
        request: proto.StudyRequest,
        wait_admission: bool = True,
        timeout_s: Optional[float] = None,
    ) -> str:
        """Submit a study; returns its id once the daemon admits it.

        Idempotent: re-submitting the identical request (e.g. retrying
        after a :class:`ClientTimeoutError`, or after a daemon restart)
        is a no-op success.  A typed rejection recorded by the daemon
        (queue full, tenant quota, overload, conflict) is re-raised
        here as its original exception class.
        """
        sid = request.study_id
        existing = proto.read_json(self.paths.request_file(sid))
        if existing is not None:
            if request.matches(existing):
                return sid  # already admitted: idempotent retry
            raise error_for_code(
                "study_conflict",
                f"study {sid!r} already exists with a different "
                "specification",
            )
        # Clear any stale rejection so this attempt's verdict is fresh.
        try:
            self.paths.rejection_file(sid).unlink()
        except OSError:
            pass
        self._drop_in_inbox(request)
        if not wait_admission:
            return sid
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else self.timeout_s
        )
        while True:
            # Admission writes request.json, then the queued state: wait
            # for the state, so a status() right after this finds it.
            if proto.read_json(self.paths.state_file(sid)) is not None:
                return sid
            rejection = proto.read_json(self.paths.rejection_file(sid))
            if rejection is not None:
                raise error_for_code(
                    str(rejection.get("code", "service_error")),
                    str(rejection.get("message", "submission rejected")),
                )
            if time.monotonic() > deadline:
                raise ClientTimeoutError(
                    f"daemon did not acknowledge study {sid!r} in time; "
                    "submission is idempotent — safe to retry"
                )
            time.sleep(self.poll_s)

    def _drop_in_inbox(self, request: proto.StudyRequest) -> None:
        """Atomically place the request in the daemon's inbox."""
        self.paths.inbox.mkdir(parents=True, exist_ok=True)
        name = f"{request.study_id}.{uuid.uuid4().hex[:8]}.json"
        # Unsorted: the order of the space's keys is the grid's order.
        write_atomic(
            self.paths.inbox / name, json.dumps(request.to_payload()).encode()
        )

    # ------------------------------------------------------------------
    def status(self, study_id: str) -> Dict[str, Any]:
        """The study's current ``state.json`` (typed error if unknown)."""
        state = proto.read_json(self.paths.state_file(study_id))
        if state is None:
            raise StudyNotFoundError(f"no study {study_id!r} under "
                                     f"{self.paths.root}")
        return state

    def result(self, study_id: str) -> Dict[str, Any]:
        """The completed study's full result dump."""
        payload = proto.read_json(self.paths.result_file(study_id))
        if payload is None:
            raise StudyNotFoundError(
                f"study {study_id!r} has no result (not completed?)"
            )
        return payload

    def watch(
        self, study_id: str, timeout_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until the study reaches a terminal state; returns it.

        Does not raise on study failure — the caller inspects
        ``status``/``detail`` — but does raise
        :class:`ClientTimeoutError` when the deadline passes first.
        """
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else self.timeout_s
        )
        while True:
            state = proto.read_json(self.paths.state_file(study_id))
            if state is not None and state.get("status") in (
                proto.TERMINAL_STATES
            ):
                return state
            if time.monotonic() > deadline:
                raise ClientTimeoutError(
                    f"study {study_id!r} not terminal within timeout "
                    f"(last state: "
                    f"{state.get('status') if state else 'unknown'})"
                )
            time.sleep(self.poll_s)

    def cancel(self, study_id: str) -> None:
        """Request cancellation (picked up at the next trial boundary)."""
        if proto.read_json(self.paths.state_file(study_id)) is None:
            raise StudyNotFoundError(f"no study {study_id!r} under "
                                     f"{self.paths.root}")
        cancel = self.paths.cancel_file(study_id)
        cancel.parent.mkdir(parents=True, exist_ok=True)
        cancel.touch()

    def service_status(self) -> Dict[str, Any]:
        """Daemon manifest plus per-state study counts.

        Suspended studies (parked warm by the memory watchdog, resumed
        automatically once pressure clears) are also listed by id under
        ``"suspended"`` — they are neither queued nor terminal.
        """
        manifest = proto.read_json(self.paths.daemon_file) or {
            "status": "absent"
        }
        counts: Dict[str, int] = {}
        suspended: List[str] = []
        if self.paths.studies.is_dir():
            for study_dir in sorted(self.paths.studies.iterdir()):
                state = proto.read_json(study_dir / proto.STATE_FILE) or {}
                status = str(state.get("status", "unknown"))
                counts[status] = counts.get(status, 0) + 1
                if status == proto.SUSPENDED:
                    suspended.append(study_dir.name)
        return {"daemon": manifest, "studies": counts, "suspended": suspended}
