"""Crash-consistent durability: write-ahead journal, checkpoint store, recovery.

PR 1's resilience stack covers *transient* failures — a task that dies is
retried, a flaky node is quarantined.  This module covers *hard* failures:
the driver process is SIGKILLed, or a node is lost together with the data
versions it held.  Three cooperating pieces:

* :class:`WriteAheadJournal` — an append-only JSONL file with one record
  per task (``completed`` / ``failed``; replay also reads the
  ``submitted`` / ``started`` lines of older journals), fsync'd so a
  crash can lose at most the record being written.  Tasks are keyed by
  :class:`TaskKeyer`'s deterministic ids (task name + parameter digest +
  occurrence index), which are stable across processes — re-running the
  same driver program regenerates the same keys in the same order.
* :class:`CheckpointStore` — spills completed task outputs to disk at a
  configurable cadence (every task / every N / off), so a
  journaled-complete task can be *restored* instead of re-executed.
  Each spill is one self-verifying file; every file write and fsync
  goes through :mod:`repro.util.durable`.
* :class:`RecoveryManager` — on restart, replays the journal (tolerating
  a torn final record from a mid-write crash), and answers "was this key
  already completed, and is its output restorable?".  The runtime uses it
  to mark the replayed prefix done with exactly-once semantics and
  re-submit only the un-done frontier.

A *node* (not the driver) lost mid-run is handled by lineage instead:
:func:`repro.runtime.lineage.recover_lost_data`.  Each study's keyer,
journal, store and recovery are bundled in a
:class:`~repro.runtime.sessions.StudySession`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from array import array
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
    TYPE_CHECKING,
)

from repro.runtime.future import is_future
from repro.runtime.task_definition import TaskInvocation
from repro.util import durable
from repro.util.durable import CheckpointCorruptError
from repro.util.logging_utils import get_logger
from repro.util.validation import check_one_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.resilience import ResilienceLog

_log = get_logger("runtime.checkpoint")

#: Journal record kinds: ``completed`` / ``failed`` per task, plus session
#: markers so replay can tell which process wrote which records.
#: ``submitted`` / ``started`` are only read, from older journals.
SUBMITTED = "submitted"
STARTED = "started"
COMPLETED = "completed"
FAILED = "failed"
SESSION = "session"

RECORD_KINDS = (SUBMITTED, STARTED, COMPLETED, FAILED, SESSION)

#: Journal file name inside a checkpoint directory.
JOURNAL_FILE = "journal.jsonl"
#: Sub-directory holding spilled task outputs.
OUTPUTS_DIR = "outputs"

_MISSING = object()

#: Types whose canonical form is their ``repr``.  The exact-type set is
#: checked before the ``isinstance`` ladder; subclasses (``np.float64``,
#: ``IntEnum``) take the ladder and get the string they always got.
_PRIMITIVES = (int, float, complex, bool, str, bytes, type(None))
_PRIMITIVE_TYPES = frozenset(_PRIMITIVES)

# ``json.dumps(..., sort_keys=True)`` builds a ``JSONEncoder`` per call.
_encode_record = json.JSONEncoder(sort_keys=True).encode
_escape = json.encoder.encode_basestring_ascii
#: A commit record (``task``, ``node``, ``stored`` passed positionally)
#: is formatted by hand, to the bytes ``_encode_record`` gives for the
#: same fields: keys in sorted order, each kind's JSON form precomputed.
_COMMIT_LINE = '{"key": %s, "node": %s, "rec": %s, "seq": %d, "stored": %s, "task": %s}'
_KIND_JSON = {kind: _escape(kind) for kind in RECORD_KINDS}


class JournalCorruptError(RuntimeError):
    """A journal record *before* the final one failed to parse.

    A torn final record is expected (crash mid-write) and silently
    dropped; corruption earlier in the file means the journal cannot be
    trusted and replay refuses to guess.
    """


class _UnstableArgument(Exception):
    """An argument with no process-stable canonical form (content keys)."""


# ----------------------------------------------------------------------
# Deterministic task keys
# ----------------------------------------------------------------------
class OccurrenceTable:
    """Exact occurrence counts of 64-bit slots, with no object per slot.

    A dict of ``slot -> count`` keeps an int object per distinct slot, and
    each one pins a pymalloc arena that freed tasks would otherwise
    return.  Here a slot seen once is only its 8 bytes in an ``array('Q')``
    open-addressing table (linear probing, load at most one half; 0 marks
    an empty cell), and only a slot seen again gets an exact count in a
    dict.  Slot 0 cannot live in the table, so it keeps its own counter.
    """

    __slots__ = ("_cells", "_mask", "_used", "_repeats", "_zero")

    def __init__(self) -> None:
        self._cells = array("Q", bytes(8 * 8))
        self._mask = 7
        self._used = 0
        self._repeats: Dict[int, int] = {}
        self._zero = 0

    def count(self, slot: int) -> int:
        """How often ``slot`` was counted before; counts it once more."""
        if not slot:
            self._zero += 1
            return self._zero - 1
        cells, mask = self._cells, self._mask
        i = slot & mask
        held = cells[i]
        while held:
            if held == slot:
                seen = self._repeats.get(slot, 1)
                self._repeats[slot] = seen + 1
                return seen
            i = (i + 1) & mask
            held = cells[i]
        cells[i] = slot
        self._used += 1
        if 2 * self._used > mask + 1:
            self._grow()
        return 0

    def _grow(self) -> None:
        size = 2 * len(self._cells)
        cells = array("Q", bytes(8 * size))
        mask = size - 1
        for slot in filter(None, self._cells):
            i = slot & mask
            while cells[i]:
                i = (i + 1) & mask
            cells[i] = slot
        self._cells, self._mask = cells, mask


class TaskKeyer:
    """Assigns process-independent keys to task invocations.

    A key is ``sha1(name | param-digest | occurrence)``: two runs of the
    same driver program submit the same tasks in the same order and get
    identical keys, which is what lets a resumed session match its
    submissions against the journal of a killed one.

    Futures in the arguments are digested by their *producer's key* (plus
    return slot), not their object identity, so keys are stable through
    arbitrary dependency chains.  Objects with a memory-address ``repr``
    digest unstably — their tasks simply never match the journal and are
    re-executed, which is safe (at-least-once, never wrong-result).

    ``namespace`` salts every key (multi-tenant service mode): two
    studies running the same driver program get disjoint key spaces, so
    sibling journals can never cross-restore each other's outputs.  The
    default empty namespace produces byte-identical keys to previous
    versions — existing journals stay resumable.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        # Occurrence counters, one flat table per definition name, keyed
        # by the 64-bit slot (the head of the param digest) rather than
        # the digest string: the keyer is the one journal-path structure
        # that must persist for the whole session (a counter per
        # *distinct* submission).  A slot collision merely inflates the
        # colliding task's occurrence index — and deterministically so
        # (same driver program, same hashes, same collision), so keys
        # still match across sessions.
        self._occurrences: Dict[str, OccurrenceTable] = {}

    def key_for(self, task: TaskInvocation) -> str:
        """Compute (and memoise on the invocation) the task's key."""
        if task.task_key is not None:
            return task.task_key
        name = task.definition.name
        digest = self._params_digest(task.args, task.kwargs)
        table = self._occurrences.get(name)
        if table is None:
            table = self._occurrences[name] = OccurrenceTable()
        occurrence = table.count(int(digest[:16], 16))
        raw = f"{name}|{digest}|{occurrence}"
        if self.namespace:
            raw = f"{self.namespace}::{raw}"
        task.task_key = hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]
        return task.task_key

    def content_key_for(self, task: TaskInvocation) -> Optional[str]:
        """Pure content identity of ``task`` — or ``None`` if it has none.

        Where :meth:`key_for` answers "which submission of which study is
        this?" (namespace-salted, occurrence-indexed — the journal-replay
        identity), the content key answers "what value would this task
        compute?": ``sha1(qualified-name | param-digest)`` with no
        namespace and no occurrence, so identical stage invocations
        across trials, studies and ``repro serve`` tenants collapse onto
        one reuse-cache entry.  The qualified function name (module +
        qualname, not just the decorator name) keys the *code*, so two
        unrelated functions sharing a task name can never cross-restore.

        Only declared-deterministic tasks participate
        (``TaskDefinition.cacheable``), and only arguments with a stable
        canonical form: primitives, containers thereof, and futures of
        cacheable producers (digested by the producer's content key, so
        a stage chain's key pins its whole prefix).  Anything else —
        an arbitrary object whose ``repr`` may embed a memory address, a
        future of a non-cacheable task — returns ``None``: an
        address-based form could *collide* across processes (same
        address, different value), and a shared cache must never trade
        correctness for a hit.  ``None`` just means "compute it".
        """
        if task.content_key is not None:
            return task.content_key
        definition = task.definition
        if not definition.cacheable:
            return None
        try:
            digest = self._params_digest(task.args, task.kwargs, content=True)
        except _UnstableArgument:
            return None
        func = definition.func
        qualified = (
            f"{getattr(func, '__module__', '')}."
            f"{getattr(func, '__qualname__', definition.name)}"
        )
        raw = f"{qualified}|{definition.name}|{digest}"
        task.content_key = hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]
        return task.content_key

    def _params_digest(
        self, args: Tuple[Any, ...], kwargs: Dict[str, Any], content: bool = False
    ) -> str:
        """sha1 of each argument's canonical form and a NUL, then of each
        kwarg's ``name=``, form and NUL."""
        h = hashlib.sha1()
        canonical = self._canonical
        for a in args:
            h.update(canonical(a, content).encode("utf-8", "replace") + b"\x00")
        for k in sorted(kwargs):
            h.update(k.encode("utf-8") + b"=")
            h.update(canonical(kwargs[k], content).encode("utf-8", "replace") + b"\x00")
        return h.hexdigest()

    def _canonical(self, obj: Any, content: bool = False) -> str:
        """Stable textual form of one argument (recursive, bounded).

        For a content key (``content``) futures digest by their
        producer's content key and a form that is not process-stable
        raises :class:`_UnstableArgument` instead of being approximated.
        """
        if type(obj) in _PRIMITIVE_TYPES:
            return repr(obj)
        if is_future(obj):
            producer = obj.invocation
            if not content:
                key = producer.task_key or self.key_for(producer)
            else:
                key = self.content_key_for(producer)
                if key is None:
                    raise _UnstableArgument(
                        f"future of non-cacheable task {producer.label}"
                    )
            return f"<fut:{key}:{obj.index}>"
        if isinstance(obj, Mapping):
            inner = ",".join(
                f"{self._canonical(k, content)}:{self._canonical(obj[k], content)}"
                for k in sorted(obj, key=repr)
            )
            return "{" + inner + "}"
        if isinstance(obj, (list, tuple)):
            inner = ",".join(self._canonical(i, content) for i in obj)
            return ("[" if isinstance(obj, list) else "(") + inner
        if isinstance(obj, (set, frozenset)):
            return "{" + ",".join(
                sorted(self._canonical(i, content) for i in obj)
            ) + "}"
        if isinstance(obj, _PRIMITIVES):
            return repr(obj)
        if content:
            raise _UnstableArgument(
                f"{type(obj).__name__} has no stable canonical form"
            )
        # Arbitrary object: type plus repr, truncated so huge arrays don't
        # dominate hashing time.  Address-bearing default reprs make the
        # key unstable, which degrades to re-execution, never corruption.
        return f"<{type(obj).__name__}:{repr(obj)[:256]}>"


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
class WriteAheadJournal:
    """Append-only JSONL journal: one record per task outcome.

    Parameters
    ----------
    path:
        Journal file; created (with parents) if missing, appended to if
        present — a resumed session continues the same journal, separated
        by a ``session`` marker record.
    fsync:
        ``"always"`` — fsync after every record; ``"commit"`` (default) —
        fsync after ``completed``/``failed``/``session`` records, which
        are the only kinds the runtime writes, so the two modes differ
        only for callers appending other kinds; ``"off"`` — leave
        flushing to the OS (tests / throwaway runs).
    buffer_records:
        Serialised records accumulate in a bounded in-memory buffer and
        hit the file every this-many records — and always before an
        fsync point and on close.  Under ``"commit"`` / ``"always"`` no
        completion ever waits here, so a SIGKILL loses at most the
        record being written; under ``"off"`` up to this many completions
        may be lost and are re-executed on resume.
    """

    FSYNC_MODES = ("always", "commit", "off")

    def __init__(
        self,
        path: Union[str, Path],
        fsync: str = "commit",
        buffer_records: int = 256,
    ):
        check_one_of("fsync", fsync, list(self.FSYNC_MODES))
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = durable.open_append(self.path)
        self._seq = 0
        self._buffer: List[str] = []
        self._buffer_limit = max(1, int(buffer_records))
        # submit() (main thread) and completions (worker threads) both
        # append; a lock keeps records whole on the wire.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def append(self, kind: str, key: str = "", *commit: Any, **fields: Any) -> None:
        """Buffer one record (flush + fsync according to the policy).

        ``commit`` is the per-task form: ``task``, ``node`` and
        ``stored`` given positionally — the same record as passing them
        by name.  Two strings, a bool and no other field take the
        hand-formatted line, without a kwargs dict.
        """
        if commit:
            task, node, stored = commit
            if fields or type(stored) is not bool:
                fields = dict(fields, task=task, node=node, stored=stored)
                commit = ()
        with self._lock:
            if self._fh is None:
                return
            self._seq += 1
            if commit:
                line = _COMMIT_LINE % (
                    _escape(key), _escape(node), _KIND_JSON[kind], self._seq,
                    "true" if stored else "false", _escape(task),
                )
            else:
                line = _encode_record(
                    {"rec": kind, "key": key, "seq": self._seq, **fields}
                )
            self._buffer.append(line)
            if self.fsync == "always" or (
                self.fsync == "commit" and kind in (COMPLETED, FAILED, SESSION)
            ):
                self._flush_locked(sync=True)
            elif len(self._buffer) >= self._buffer_limit:
                self._flush_locked(sync=False)

    def _flush_locked(self, sync: bool) -> None:
        """Hand the buffer to the OS (past Python's own 8 kB file buffer,
        so a killed process loses at most ``buffer_records`` records);
        optionally fsync.  Lock held."""
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()
        if sync:
            durable.fs.fsync_file(self._fh)

    def open_session(self, **fields: Any) -> None:
        """Mark the start of one driver process in the journal."""
        self.append(SESSION, pid=os.getpid(), **fields)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._flush_locked(sync=False)
                try:
                    durable.fs.fsync_file(self._fh)
                except OSError:  # pragma: no cover - closed/odd fds
                    pass
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------
    @staticmethod
    def replay(
        path: Union[str, Path],
        log: Optional["ResilienceLog"] = None,
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Read all records, tolerating a torn/corrupt *final* record.

        Returns ``(records, truncated)``.  A final line that does not
        parse (crash mid-write) is dropped and — when ``log`` is given —
        recorded as a ``journal_truncated``
        :class:`~repro.runtime.resilience.ResilienceEvent`.  A bad record
        anywhere *else* raises :class:`JournalCorruptError`.
        """
        path = Path(path)
        records: List[Dict[str, Any]] = []
        bad: List[int] = []
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        # A well-formed journal ends with a newline, leaving one empty
        # trailing chunk; anything after the last newline is a torn tail.
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) or "rec" not in record:
                    raise ValueError("not a journal record")
            except (ValueError, UnicodeDecodeError):
                bad.append(lineno)
                continue
            if bad:
                # A parseable record AFTER a bad one: the bad line was
                # not a torn tail but mid-file corruption.
                raise JournalCorruptError(
                    f"{path}: unparseable journal record at line {bad[0]} "
                    "followed by valid records"
                )
            records.append(record)
        truncated = bool(bad)
        if truncated:
            _log.warning(
                "journal %s: dropped torn final record (line %d)", path, bad[0]
            )
            if log is not None:
                from repro.runtime import resilience as rsl

                log.record(
                    0.0, rsl.JOURNAL_TRUNCATED,
                    detail=f"dropped torn record at line {bad[0]} of {path.name}",
                )
        return records, truncated


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class CheckpointStore:
    """On-disk store of completed task outputs, keyed by task key.

    ``cadence`` controls spilling: ``1`` spills every completion,
    ``N > 1`` every Nth completion, ``None`` disables spilling (journal
    only — resume then re-executes everything, but still knows exactly
    what was done).  Each spill is one self-verifying ``<key>.pkl``
    entry (:func:`repro.util.durable.dump_entry`): a crash mid-spill
    leaves the previous entry or none, and every load proves the
    entry's sha256 before unpickling (bit-rot, torn disks, manual
    tampering).  Headerless spills of older versions verify as corrupt.
    """

    def __init__(self, directory: Union[str, Path], cadence: Optional[int] = 1):
        if cadence is not None and cadence < 1:
            raise ValueError(f"cadence must be >= 1 or None, got {cadence}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.cadence = cadence
        self._completions = 0
        #: Keys spilled (or found on disk) this session.
        self.spilled = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def should_spill(self) -> bool:
        """Cadence decision for the next completion (counts the call)."""
        if self.cadence is None:
            return False
        self._completions += 1
        return self._completions % self.cadence == 0

    def save(self, key: str, value: Any, overwrite: bool = False) -> bool:
        """Atomically persist ``value``; False if it cannot be pickled.

        ``overwrite`` replaces an existing spill (suspend spills of the
        same trial supersede each other as training advances); without
        it an existing spill is kept — task outputs are immutable.
        """
        target = self._path(key)
        if target.exists() and not overwrite:
            return True
        try:
            durable.dump_entry(target, value)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            _log.warning("output of %s not checkpointable: %s", key, exc)
            return False
        self.spilled += 1
        return True

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def size(self, key: str) -> int:
        """Bytes on disk of ``key``'s spill (0 when absent)."""
        try:
            return self._path(key).stat().st_size
        except OSError:
            return 0

    def remove(self, key: str) -> int:
        """Drop one spill (idempotent); the bytes it held."""
        size = self.size(key)
        try:
            self._path(key).unlink()
        except OSError:
            return 0
        return size

    def load_verified(self, key: str) -> Any:
        """``key``'s spill, digest proven (:func:`repro.util.durable.load_entry`)."""
        return durable.load_entry(self._path(key))

    def verify(self, key: str) -> str:
        """Integrity state of one spill: ``"ok"`` / ``"corrupt"`` / ``"missing"``."""
        return durable.verify_entry(self._path(key))

    def verify_spills(self, keys) -> Dict[str, int]:
        """``{"ok": n, "corrupt": n, "missing": n}`` over ``keys``."""
        counts = {"ok": 0, "corrupt": 0, "missing": 0}
        for key in keys:
            counts[self.verify(key)] += 1
        return counts

    def sweep_orphans(
        self,
        referenced: Set[str],
        dry_run: bool = False,
    ) -> Dict[str, Any]:
        """Drop spills no journal record references (``repro gc``).

        A spill is *orphaned* when its key is not in ``referenced`` (keys
        with any journal record — completed spills a resume may restore,
        suspend spills a parked study may warm-resume).  Abandoned and
        superseded studies leave exactly such unreferenced spills behind
        forever; this reclaims them.  Leftover files
        (:func:`repro.util.durable.is_leftover`: a writer's temp, an
        older version's ``.sum`` sidecar) are always swept — no reader
        ever opens them.  ``dry_run`` reports without deleting.
        """
        orphans: List[str] = []
        freed = torn = 0
        for path in sorted(self.directory.iterdir()):
            if path.suffix == ".pkl":
                if path.stem in referenced:
                    continue
                orphans.append(path.stem)
            elif durable.is_leftover(path):
                torn += 1
            else:
                continue
            try:
                freed += path.stat().st_size
                if not dry_run:
                    path.unlink()
            except OSError:
                pass
        return {
            "orphans": len(orphans),
            "orphan_keys": orphans,
            "torn_temps": torn,
            "freed_bytes": freed,
            "dry_run": dry_run,
        }


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
class RecoveryManager:
    """Replays a journal and answers restore queries for a new session.

    Parameters
    ----------
    checkpoint_dir:
        Directory holding ``journal.jsonl`` and ``outputs/``.
    log:
        Optional resilience log receiving ``journal_truncated`` events.
    """

    def __init__(
        self,
        checkpoint_dir: Union[str, Path],
        log: Optional["ResilienceLog"] = None,
    ):
        self.checkpoint_dir = Path(checkpoint_dir)
        self.log = log
        self.store = CheckpointStore(self.checkpoint_dir / OUTPUTS_DIR, cadence=None)
        journal_path = self.checkpoint_dir / JOURNAL_FILE
        self.truncated = False
        self.records: List[Dict[str, Any]] = []
        if journal_path.exists():
            self.records, self.truncated = WriteAheadJournal.replay(
                journal_path, log
            )
        #: key -> last known lifecycle state across all sessions.
        self.states: Dict[str, str] = {}
        #: Keys with a ``completed`` record (the replayed prefix).
        self.completed_keys: Set[str] = set()
        self.sessions = 0
        for record in self.records:
            kind = record.get("rec")
            if kind == SESSION:
                self.sessions += 1
                continue
            key = record.get("key", "")
            if not key:
                continue
            self.states[key] = kind
            if kind == COMPLETED:
                self.completed_keys.add(key)
        #: Keys restored into the new session so far (runtime increments).
        self.restored = 0

    def restorable(self, key: str) -> bool:
        """Whether ``key`` is journaled-complete with a stored output."""
        return key in self.completed_keys and self.store.has(key)

    def restored_result(self, key: str) -> Any:
        """The stored output for a restorable key, else ``_MISSING``.

        Spills are checksum-verified on load: a truncated or bit-flipped
        file is treated as *missing* (the task re-executes, and the
        corruption surfaces as a ``data_corrupt`` resilience event) —
        never as a crash, never as a silently wrong value.
        """
        if not self.restorable(key):
            return _MISSING
        try:
            value = self.store.load_verified(key)
        except CheckpointCorruptError as exc:
            _log.warning("checkpoint of %s corrupt (%s); re-executing", key, exc)
            if self.log is not None:
                from repro.runtime import resilience as rsl

                self.log.record(0.0, rsl.DATA_CORRUPT, detail=str(exc))
            return _MISSING
        except OSError as exc:
            _log.warning("checkpoint of %s unreadable (%s); re-executing", key, exc)
            return _MISSING
        self.restored += 1
        return value

    def frontier(self) -> List[str]:
        """Keys with a record (``failed``, or an older journal's
        ``submitted``/``started``) but no completion.  A task in flight at
        a crash leaves no record, so this is not all that is left to run."""
        return [
            key for key, state in self.states.items()
            if state not in (COMPLETED,)
        ]

    def summary(self) -> Dict[str, Any]:
        """Machine-readable replay summary (CLI ``recover`` command)."""
        kinds: Dict[str, int] = {}
        for record in self.records:
            kinds[record.get("rec", "?")] = kinds.get(record.get("rec", "?"), 0) + 1
        spills = self.store.verify_spills(sorted(self.completed_keys))
        return {
            "journal": str(self.checkpoint_dir / JOURNAL_FILE),
            "records": len(self.records),
            "sessions": self.sessions,
            "record_kinds": kinds,
            "tasks_seen": len(self.states),
            "completed": len(self.completed_keys),
            "restorable": spills["ok"],
            "spill_integrity": spills,
            "frontier": len(self.frontier()),
            "truncated_tail": self.truncated,
        }
