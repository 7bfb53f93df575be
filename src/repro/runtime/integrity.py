"""End-to-end data integrity: checksummed versions, repair, recompute.

The resilience stack (retries, lineage recovery, worker supervision)
fires when something *visibly* crashes.  This module covers the failure
mode that does not announce itself: a task output silently corrupted on
the wire or at rest.  Every :class:`~repro.runtime.access_processor.DataVersion`
a task produces is sealed with a content checksum at write time and
verified at every consume point — when another task stages it as an
input, when the driver resolves it through ``wait_on``, and when a
checkpoint spill is loaded (see :mod:`repro.runtime.checkpoint`).

Two sealing modes, matching the two executor families:

* **local** (threads / workers): the checksum is a digest of
  the real pickled result bytes.  The pickled snapshot models the wire
  image of the output; the live driver-memory object is the authoritative
  source, so a corrupt snapshot repairs by re-pickling it (the local
  equivalent of a replica re-fetch).
* **simulated**: there are no real bytes, so the checksum is a
  deterministic digest of ``(label, size, seed)`` metadata and the data
  plane keeps one digest per node copy (primary +
  ``replication_factor - 1`` replicas).  Injected corruption flips a
  copy's digest; verification compares copies against the sealed value.

On an unrepairable mismatch (no good copy anywhere) the escalation path
is :func:`repro.runtime.lineage.recompute_corrupt`: the writer's versions
and futures are invalidated and it re-enters the graph (plus any
consumers caught mid-flight) — the same lineage path node loss uses.

Everything is counted (:meth:`IntegrityManager.stats`) so a study can
state "N outputs verified, M repaired, 0 unverified reads".
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime import resilience as rsl
from repro.runtime.access_processor import DataVersion
from repro.runtime.task_definition import TaskInvocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime

#: Sealing modes (which executor family produced the bytes).
MODE_LOCAL = "local"
MODE_SIMULATED = "simulated"

_UNPICKLABLE = "<unpicklable>"


class IntegrityError(RuntimeError):
    """A consumed data version failed verification and could not be repaired."""


def checksum_bytes(payload: bytes) -> str:
    """Content digest of a byte string (truncated SHA-256)."""
    return hashlib.sha256(payload).hexdigest()[:16]


def pickle_value(value: Any) -> Optional[bytes]:
    """Pickle ``value`` for checksumming; None when it cannot be pickled.

    Unpicklable outputs (live handles, lambdas) simply stay unverified —
    degrading to today's behaviour, never to a false corruption alarm.
    """
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - any pickling failure means "skip"
        return None


def simulated_digest(label: str, size_mb: float, seed: int) -> str:
    """Deterministic stand-in digest for a simulated data version."""
    return checksum_bytes(f"{label}|{size_mb:.6f}|{seed}".encode("utf-8"))


class _VersionRecord:
    """Integrity bookkeeping for one sealed data version."""

    __slots__ = (
        "version", "checksum", "size_mb", "writer_label", "primary",
        "copies", "snapshot", "value", "has_value",
    )

    def __init__(
        self,
        version: DataVersion,
        checksum: str,
        size_mb: float,
        writer_label: str,
        primary: str,
    ):
        self.version = version
        self.checksum = checksum
        self.size_mb = size_mb
        self.writer_label = writer_label
        #: Node the consumer-facing copy lives on (simulated mode).
        self.primary = primary
        #: node -> digest of the copy as currently stored (simulated mode).
        self.copies: Dict[str, str] = {}
        #: Pickled wire image of the output (local mode).
        self.snapshot: Optional[bytearray] = None
        #: Live driver-memory object — the local repair source.
        self.value: Any = None
        self.has_value = False

    @property
    def label(self) -> str:
        return self.version.label


@dataclass
class VerifyOutcome:
    """Result of verifying one writer's sealed outputs."""

    ok: bool = True
    #: ``(label, source)`` pairs repaired from a surviving copy.
    repaired: List[Tuple[str, str]] = field(default_factory=list)
    #: Labels with no good copy left (writer must recompute).
    corrupt: List[str] = field(default_factory=list)


class IntegrityManager:
    """Seals, verifies, and repairs task-output data versions.

    Parameters
    ----------
    mode:
        ``"local"`` (checksums over real pickled bytes) or
        ``"simulated"`` (metadata digests + per-node copies).
    replication_factor:
        Copies per output in simulated mode (primary + replicas).
    seed:
        Seed folded into simulated digests, so two studies with different
        seeds have disjoint digest spaces.
    log:
        Resilience log receiving ``data_corrupt`` / ``replica_repair``
        events.
    clock:
        Zero-argument callable giving event timestamps (the executor's
        wall or virtual clock).
    """

    def __init__(
        self,
        mode: str,
        replication_factor: int = 1,
        seed: int = 0,
        log=None,
        clock=None,
    ):
        if mode not in (MODE_LOCAL, MODE_SIMULATED):
            raise ValueError(f"unknown integrity mode {mode!r}")
        self.mode = mode
        self.replication_factor = int(replication_factor)
        self.seed = int(seed)
        self.log = log
        self.clock = clock or (lambda: 0.0)
        self._records: Dict[str, _VersionRecord] = {}
        self._by_writer: Dict[int, List[_VersionRecord]] = {}
        # Local executors verify/repair from worker threads concurrently.
        self._lock = threading.Lock()
        # ---- counters (stats() / study metadata / CLI report) ----
        self.outputs_sealed = 0
        self.reads_verified = 0
        self.corruptions_detected = 0
        self.replica_repairs = 0
        self.recomputes = 0
        self.transfer_retries = 0
        self.transfer_failures = 0
        #: Consumed task-written versions with no verifiable record — the
        #: acceptance criterion is that a chaos study keeps this at 0.
        self.unverified_reads = 0
        #: Reuse-cache hit-time verifications routed through this manager
        #: (the cache refuses to return a value that did not pass — a
        #: failed verification is a miss, counted under cache_corrupt).
        self.cache_verified = 0
        self.cache_corrupt = 0

    # ------------------------------------------------------------------
    # Sealing (write time)
    # ------------------------------------------------------------------
    def seal_outputs(
        self, runtime: "COMPSsRuntime", task: TaskInvocation, result: Any
    ) -> None:
        """Checksum ``task``'s freshly-written data versions.

        Local mode snapshots the pickled return values (:meth:`seal_local`).
        Simulated mode derives digests from the modelled output size and
        places copies on the producing node plus ``replication_factor - 1``
        live workers: replication is off-critical-path and costs no
        virtual time (*fetching* from a replica during repair does), and
        an output written while the cluster is short-handed stays
        under-replicated until :meth:`reseed_node` tops it up.  Then the
        failure injector may silently corrupt the new copies (chaos
        testing) — detection happens later, at consume time.
        """
        access = runtime.access
        versions = access.versions_written_by(task)
        if not versions:
            return
        if self.mode == MODE_SIMULATED:
            primary = task.node or ""
            extra = self.replication_factor - 1
            replicas = sorted(
                w.name
                for w in runtime.pool.workers.values()
                if w.available and w.name != primary
            )[:extra] if extra > 0 else []
            size_mb = float(task.definition.output_size_mb)
            with self._lock:
                records = self._by_writer.setdefault(task.task_id, [])
                for version in versions:
                    digest = simulated_digest(version.label, size_mb, self.seed)
                    record = _VersionRecord(
                        version, digest, size_mb, task.label, primary=primary
                    )
                    record.copies = dict.fromkeys([primary, *replicas], digest)
                    self._keep(records, record)
        else:
            futs = access.future_versions(task)
            if not futs:
                return
            if len(futs) == 1:
                items = [(futs[0][1], result)]
            else:
                try:
                    values = list(result)
                except TypeError:
                    values = []
                items = [
                    (version, values[i]) for i, version in futs if i < len(values)
                ]
            self.seal_local(task, items)
        injector = runtime.failure_injector
        if injector is not None:
            scope = injector.corruption_scope(task.label)
            if scope is not None:
                # Silent: no event at injection — the point of end-to-end
                # verification is that corruption surfaces at read time.
                self.corrupt(task, scope)

    def _keep(self, records: List[_VersionRecord], record: _VersionRecord) -> None:
        """File a freshly-sealed record (caller holds the lock)."""
        record.version.checksum = record.checksum
        self._records[record.label] = record
        records.append(record)
        self.outputs_sealed += 1

    def seal_local(
        self,
        task: TaskInvocation,
        version_values: Sequence[Tuple[DataVersion, Any]],
    ) -> None:
        """Checksum the real pickled bytes of ``task``'s return values."""
        with self._lock:
            records = self._by_writer.setdefault(task.task_id, [])
            for version, value in version_values:
                payload = pickle_value(value)
                if payload is None:
                    version.checksum = _UNPICKLABLE
                    continue
                digest = checksum_bytes(payload)
                record = _VersionRecord(
                    version, digest, len(payload) / 1e6, task.label,
                    primary=task.node or "",
                )
                record.snapshot = bytearray(payload)
                record.value = value
                record.has_value = True
                self._keep(records, record)

    def discard(self, task: TaskInvocation) -> None:
        """Drop ``task``'s sealed records (it is about to re-execute)."""
        with self._lock:
            for record in self._by_writer.pop(task.task_id, ()):
                self._records.pop(record.label, None)

    # ------------------------------------------------------------------
    # Corruption injection (FailureInjector hook)
    # ------------------------------------------------------------------
    def corrupt(self, task: TaskInvocation, scope: str = "primary") -> List[str]:
        """Silently corrupt ``task``'s sealed outputs; returns labels hit.

        ``scope="primary"`` flips the consumer-facing copy only (replicas
        survive, exercising the re-fetch path); ``scope="all"`` flips
        every copy (forcing the lineage-recompute path).
        """
        hit: List[str] = []
        with self._lock:
            for record in self._by_writer.get(task.task_id, ()):
                if self.mode == MODE_SIMULATED:
                    bad = checksum_bytes(
                        f"corrupt|{record.checksum}".encode("utf-8")
                    )
                    targets = (
                        list(record.copies)
                        if scope == "all"
                        else [record.primary]
                    )
                    for node in targets:
                        if node in record.copies:
                            record.copies[node] = bad
                else:
                    if record.snapshot:
                        record.snapshot[0] ^= 0xFF
                        if scope == "all":
                            # No independent copies locally: also sever the
                            # in-memory repair source.
                            record.value = None
                            record.has_value = False
                hit.append(record.label)
        return hit

    # ------------------------------------------------------------------
    # Verification (consume time)
    # ------------------------------------------------------------------
    def verify_writer(
        self,
        writer: TaskInvocation,
        versions: Sequence[DataVersion],
        consumer_label: str = "",
    ) -> VerifyOutcome:
        """Verify (and repair in place) every sealed output of ``writer``.

        ``versions`` is the writer's output lineage from the access
        processor; versions without a record count as unverified reads.
        Detected corruption repairs from a surviving copy when one
        exists (``replica_repair``); labels with no good copy are
        returned in ``outcome.corrupt`` for the caller to escalate.
        """
        outcome = VerifyOutcome()
        with self._lock:
            for version in versions:
                record = self._records.get(version.label)
                if record is None:
                    # Local mode seals return-value versions only: INOUT
                    # versions mutate caller objects in driver memory and
                    # never cross a wire.  In simulated mode every written
                    # version is sealed, so a missing record is a real
                    # unverified read.
                    if self.mode == MODE_SIMULATED and not version.invalidated:
                        self.unverified_reads += 1
                    continue
                if self._copy_ok(record):
                    self.reads_verified += 1
                    continue
                self.corruptions_detected += 1
                self._event(
                    rsl.DATA_CORRUPT, record.writer_label,
                    node=record.primary,
                    detail=f"{record.label} checksum mismatch "
                    f"(consumer {consumer_label or 'driver'})",
                )
                source = self._repair(record)
                if source is not None:
                    self.replica_repairs += 1
                    self.reads_verified += 1
                    outcome.repaired.append((record.label, source))
                    self._event(
                        rsl.REPLICA_REPAIR, record.writer_label, node=source,
                        detail=f"{record.label} re-fetched from {source}",
                    )
                else:
                    outcome.ok = False
                    outcome.corrupt.append(record.label)
        return outcome

    def wait_verified(
        self, runtime: "COMPSsRuntime", tasks: List[TaskInvocation]
    ) -> None:
        """Wait for ``tasks``, then verify what the driver is about to read.

        A corrupt output that cannot be repaired from a replica sends its
        writer back through the lineage machinery and the wait repeats;
        the loop is bounded so persistent corruption (e.g. a deterministic
        injector that re-corrupts every attempt) fails loudly instead of
        spinning forever.
        """
        from repro.runtime.lineage import recompute_corrupt

        executor = runtime.executor
        executor.wait_for(tasks)
        for _ in range(25):
            bad: List[TaskInvocation] = []
            with runtime.lock:
                for task in tasks:
                    versions = runtime.access.versions_written_by(task)
                    if versions and not self.verify_writer(task, versions).ok:
                        bad.append(task)
                if bad:
                    recompute_corrupt(runtime, bad)
            if not bad:
                return
            executor.notify_topology_change()
            executor.wait_for(tasks)
        raise IntegrityError(
            "corrupt outputs persisted after 25 repair rounds: "
            + ", ".join(t.label for t in bad)
        )

    def _copy_ok(self, record: _VersionRecord) -> bool:
        if self.mode == MODE_SIMULATED:
            return record.copies.get(record.primary) == record.checksum
        if record.snapshot is None:
            return True
        return checksum_bytes(bytes(record.snapshot)) == record.checksum

    def _repair(self, record: _VersionRecord) -> Optional[str]:
        """Restore the consumer-facing copy; returns its source or None."""
        if self.mode == MODE_SIMULATED:
            for node in sorted(record.copies):
                if node != record.primary and record.copies[node] == record.checksum:
                    record.copies[record.primary] = record.checksum
                    return node
            return None
        if not record.has_value:
            return None
        payload = pickle_value(record.value)
        if payload is None or checksum_bytes(payload) != record.checksum:
            return None
        record.snapshot = bytearray(payload)
        return "driver-memory"

    def evacuate(self, node: str, targets: Sequence[str]) -> int:
        """Drain-time spill: copy ``node``'s *only-good* copies elsewhere.

        For every record whose copy on ``node`` is its last good one, a
        replica is placed on the first ``targets`` nodes (up to
        ``replication_factor`` total good copies, and at least one).
        Modelled off-critical-path like seal-time replication.  Returns
        the number of records evacuated.  Simulated mode only — local
        outputs live in driver memory and survive node churn.
        """
        if self.mode != MODE_SIMULATED or not targets:
            return 0
        moved = 0
        with self._lock:
            for label in sorted(self._records):
                record = self._records[label]
                if record.copies.get(node) != record.checksum:
                    continue
                good_elsewhere = [
                    n for n, d in record.copies.items()
                    if n != node and d == record.checksum
                ]
                if good_elsewhere:
                    continue
                want = max(1, self.replication_factor - 1)
                placed = False
                for target in targets[:want]:
                    if record.copies.get(target) != record.checksum:
                        record.copies[target] = record.checksum
                        placed = True
                if placed:
                    moved += 1
        return moved

    def reseed_node(self, node: str) -> int:
        """Rejoin-time re-seed: use ``node`` as a replica target again.

        Every record with fewer than ``replication_factor`` good copies
        gains a fresh one on the rejoined node.  (Records still naming a
        copy on the node are the ones that survived its loss via a
        verified checkpoint spill — lineage recovery discarded the rest —
        so those copies count as restored rather than stale.)  Returns
        the number of records re-seeded.
        """
        if self.mode != MODE_SIMULATED:
            return 0
        seeded = 0
        with self._lock:
            for label in sorted(self._records):
                record = self._records[label]
                good = [
                    n for n, d in record.copies.items() if d == record.checksum
                ]
                if not good:
                    continue  # nothing intact to copy from
                if node in good or len(good) >= self.replication_factor:
                    continue
                record.copies[node] = record.checksum
                seeded += 1
        return seeded

    def replica_source(
        self, writer: TaskInvocation, exclude: Sequence[str] = ()
    ) -> Optional[str]:
        """A node (not in ``exclude``) holding good copies of every output.

        The transfer path falls back here when the primary node's link is
        declared dead: the consumer re-fetches the whole output set from
        one surviving replica.
        """
        with self._lock:
            records = self._by_writer.get(writer.task_id)
            if not records:
                return None
            candidates: Optional[set] = None
            for record in records:
                good = {
                    node
                    for node, digest in record.copies.items()
                    if digest == record.checksum and node not in exclude
                }
                candidates = good if candidates is None else candidates & good
            if not candidates:
                return None
            return sorted(candidates)[0]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _event(self, kind: str, task_label: str, node: str, detail: str) -> None:
        if self.log is not None:
            self.log.record(self.clock(), kind, task_label, node, detail=detail)

    def note_cache_verify(self, ok: bool) -> None:
        """Account one reuse-cache hit-time verification.

        The :class:`~repro.runtime.reuse.ReuseCache` proves every
        candidate hit against its recorded sha256 before returning it;
        routing the tally through the integrity manager keeps one ledger
        for *all* verified reads, so the chaos acceptance's "zero
        unverified reads" claim covers cache restores too.
        """
        with self._lock:
            if ok:
                self.cache_verified += 1
            else:
                self.cache_corrupt += 1
                self.corruptions_detected += 1

    def stats(self) -> Dict[str, int]:
        """Machine-readable counters (study metadata / CLI report)."""
        return {
            "outputs_sealed": self.outputs_sealed,
            "reads_verified": self.reads_verified,
            "corruptions_detected": self.corruptions_detected,
            "replica_repairs": self.replica_repairs,
            "recomputes": self.recomputes,
            "transfer_retries": self.transfer_retries,
            "transfer_failures": self.transfer_failures,
            "unverified_reads": self.unverified_reads,
            "cache_verified": self.cache_verified,
            "cache_corrupt": self.cache_corrupt,
        }

    def describe(self) -> str:
        """One-line human summary for the CLI report."""
        return (
            f"integrity: {self.outputs_sealed} outputs sealed, "
            f"{self.reads_verified} reads verified, "
            f"{self.corruptions_detected} corruptions detected, "
            f"{self.replica_repairs} replica repairs, "
            f"{self.recomputes} recomputes, "
            f"{self.transfer_retries} transfer retries "
            f"({self.transfer_failures} exhausted), "
            f"{self.unverified_reads} unverified reads"
        )
