"""Cross-trial computation reuse: a crash-safe content-addressed stage cache.

Trials in an HPO grid share huge work prefixes — the same data prep, the
same first N epochs when only ``num_epochs`` differs (a third of the
paper's 27-config grid is prefix-redundant).  The runner splits trials
into pipeline stages (see :mod:`repro.hpo.stages`) and the runtime keys
each stage by the *content key* the checkpoint subsystem's
:class:`~repro.runtime.checkpoint.TaskKeyer` derives from the stage's
name and canonicalised arguments.

Sharing *inside one study* does not go through this module: it is a
graph join in :meth:`COMPSsRuntime.submit
<repro.runtime.runtime.COMPSsRuntime.submit>` — a later submission of a
key the study already submitted returns the earlier node's futures, so
an all-at-once grid runs each shared stage once (counted here as
``joined``).  This module is the path *between* studies, ``repro
serve`` tenants and processes — content keys are deliberately
namespace-free — and only a study's first submitter of a key consults
it: every computed stage is published here, and a published stage
resolves from disk instead of re-executing.

A cache that returns a torn, stale or corrupt entry silently poisons
every downstream trial — worse than no cache at all — so the layer is
engineered robustness-first:

* **Verified hits.**  Every entry is one self-verifying file: a sha256
  header line, then the pickle (the spill format of
  :class:`~repro.runtime.checkpoint.CheckpointStore`, which this class
  builds on).  A hit is only a hit after the bytes re-hash to the
  header and unpickle cleanly; anything else is a *miss* (recompute),
  never a wrong restore.  Verifications are accounted through the
  runtime's :class:`~repro.runtime.integrity.IntegrityManager` so the
  chaos acceptance can assert zero unverified cache reads.
* **Quarantine.**  A key whose entry fails verification
  ``poison_threshold`` times is quarantined (a ``quarantine/<key>.bad``
  marker): something is systematically corrupting it, so the cache stops
  trusting *and* stops republishing it — the stage simply recomputes
  forever, which is always correct.
* **Atomic publication.**  An entry becomes visible only by the rename
  of a fully-fsynced temp file (:func:`repro.util.durable.write_atomic`);
  a SIGKILL mid-write leaves a ``.tmp`` no reader ever opens.  Entries
  are immutable and a publish of a key on disk is a no-op; two racing
  misses both compute and publish the same verified value, so a race
  duplicates work, never corrupts a value.
* **Bounded disk.**  ``max_bytes`` caps the store; the evictor sheds
  entries LRU-by-atime (hits ``os.utime`` their entry) and never evicts
  the key whose publish triggered the pass.

Every anomaly path — corrupt entry, vanished file, a writer that died
before publishing, full disk, unpicklable value — degrades to
recomputation, so a study with the cache on produces byte-identical
best-config results to the same study with the cache off.

The cache is also the **store of record for consumed stage states**
(:class:`StageRelease`).  Once a published value's consumers are all
DONE, the driver drops it: the task record stays, its futures hold a
:class:`~repro.runtime.future.HeldByCache` stand-in, and driver memory
follows the live frontier of the stage tree instead of its size.  A
later read — a sibling joining the node, ``compss_wait_on``, a re-run
consumer, a drain spill — reloads the value through the same verified
read as a hit (``acquire(key, released=True)``); an entry that is gone
(evicted, corrupt, quarantined) re-runs the producer through lineage
(:func:`~repro.runtime.lineage.reacquire`).  ``released`` counts values
dropped, ``reloaded`` verified reads of released values; neither is a
hit or a miss, so ``hits / (hits + misses)`` still measures the cache
as a cross-study memo.  Release is on whenever the cache is, except
under ``stream_completed`` (which frees whole tasks) and
``verify_outputs`` (whose sealed records keep their values).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union, TYPE_CHECKING

from repro.runtime.checkpoint import CheckpointCorruptError, CheckpointStore
from repro.runtime.future import HeldByCache, slot_futures
from repro.util import durable
from repro.util.logging_utils import get_logger
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task_definition import TaskInvocation

_log = get_logger("runtime.reuse")

#: Sub-directory (inside the cache dir) holding poison markers.
QUARANTINE_DIR = "quarantine"

#: Sentinel distinguishing "miss — compute it" from a cached ``None``.
MISS = object()


class ReuseCache:
    """Content-addressed stage-output cache with verified hits.

    Parameters
    ----------
    directory:
        Cache root (created if missing).  Shared across studies,
        tenants and processes — everything coordination-relevant lives
        on disk.
    max_bytes:
        Disk ceiling; ``None`` = unbounded.  Publishing past the
        ceiling evicts LRU-by-atime until back under.
    poison_threshold:
        Verification failures before a key is quarantined.
    integrity:
        Optional :class:`~repro.runtime.integrity.IntegrityManager`
        that accounts hit-time verifications (``cache_verified`` /
        ``cache_corrupt`` counters).
    log / clock:
        Optional resilience log + timestamp source for
        ``cache_hit`` / ``cache_miss`` / ``cache_corrupt`` /
        ``cache_evict`` events.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: Optional[int] = None,
        poison_threshold: int = 3,
        integrity=None,
        log=None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_bytes is not None:
            check_positive("ReuseCache.max_bytes", max_bytes)
        check_positive("ReuseCache.poison_threshold", poison_threshold)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / QUARANTINE_DIR).mkdir(exist_ok=True)
        self.max_bytes = max_bytes
        self.poison_threshold = int(poison_threshold)
        self.integrity = integrity
        self.log = log
        self.clock = clock or (lambda: 0.0)
        #: Entry storage: atomic self-verifying entries, checksum-verified
        #: loads — exactly the spill discipline.
        self.store = CheckpointStore(self.directory, cadence=1)
        # Concurrent submitters (daemon tenant threads) and completion
        # callbacks (executor worker threads) share the counters.
        self._lock = threading.Lock()
        #: key -> verification failures seen this session (quarantine
        #: trips at ``poison_threshold``; markers persist across runs).
        self._corrupt_counts: Dict[str, int] = {}
        # ---- counters (stats() / study metadata / CLI report) ----
        self.hits = 0
        self.misses = 0
        #: Submissions the runtime resolved by joining an identical node
        #: of the same study — no consult, no task (see ``note_join``).
        self.joined = 0
        self.corrupt = 0
        self.quarantined = 0
        self.published = 0
        self.publish_skipped = 0
        self.evicted = 0
        self.evicted_bytes = 0
        #: Values the driver dropped because this cache holds them, and
        #: verified reads of such values (see :class:`StageRelease`).
        self.released = 0
        self.reloaded = 0
        #: Hits returned without digest verification — zero by
        #: construction; the chaos acceptance asserts it stays zero.
        self.unverified_hits = 0
        #: Wall seconds spent verifying hits (the bench's overhead%).
        self.verify_time_s = 0.0
        self._bytes = sum(
            self.store.size(p.stem) for p in self.directory.glob("*.pkl")
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _marker_path(self, key: str) -> Path:
        return self.directory / QUARANTINE_DIR / f"{key}.bad"

    def is_quarantined(self, key: str) -> bool:
        return self._marker_path(key).exists()

    def _event(self, kind: str, detail: str = "", key: str = "") -> None:
        if self.log is not None:
            self.log.record(
                self.clock(), kind, task_label=key and f"key={key}",
                detail=detail,
            )

    # ------------------------------------------------------------------
    # Hit path
    # ------------------------------------------------------------------
    def acquire(self, key: str, released: bool = False) -> Any:
        """Resolve ``key``: a verified value, or :data:`MISS` to compute.

        Never blocks: on a miss the caller computes the stage and calls
        :meth:`publish`.  A concurrent writer of the same key elsewhere
        merely duplicates the work — the first publish wins.

        ``released=True`` reads back a value the driver released to this
        cache (:class:`StageRelease`): the same verified read, counted
        as ``reloaded`` instead of a hit, and a :data:`MISS` is not
        counted (the caller recomputes it through lineage, not as a
        consult).  A corrupt entry found this way is counted and logged
        but left on disk and not held against the quarantine threshold:
        when such a read happens depends on thread timing (a sibling
        arriving after the last consumer finished), and the cache other
        studies share must not.  The next consult of the key drops it.
        """
        from repro.runtime import resilience as rsl

        quarantined = self.is_quarantined(key)
        if not quarantined:
            started = time.perf_counter()
            try:
                value = self._load_verified(key)
            except CheckpointCorruptError as exc:
                self._note_corrupt(key, str(exc), drop=not released)
            else:
                if value is not MISS:
                    if released:
                        with self._lock:
                            self.reloaded += 1
                        return value
                    elapsed = time.perf_counter() - started
                    with self._lock:
                        self.hits += 1
                        self.verify_time_s += elapsed
                    if self.integrity is not None:
                        self.integrity.note_cache_verify(True)
                    self._event(rsl.CACHE_HIT, key=key)
                    return value
        if released:
            return MISS
        with self._lock:
            self.misses += 1
        self._event(
            rsl.CACHE_MISS, detail="quarantined" if quarantined else "", key=key
        )
        return MISS

    def note_join(self, key: str) -> None:
        """Account a submission resolved as a graph join, not a consult.

        The runtime joins identical stages of one study at submit, so
        ``misses`` counts stages that were computed and ``joined`` the
        duplicates that never became tasks.
        """
        from repro.runtime import resilience as rsl

        with self._lock:
            self.joined += 1
        self._event(rsl.CACHE_JOIN, key=key)

    def _load_verified(self, key: str) -> Any:
        """``key``'s entry, digest proven, or MISS when there is none.

        Raises :class:`CheckpointCorruptError` for a torn or rotten one.
        """
        try:
            value = self.store.load_verified(key)
        except OSError:
            # Absent, or evicted concurrently: an ordinary miss.
            return MISS
        try:
            os.utime(self.store._path(key))  # LRU clock for the evictor
        except OSError:
            pass
        return value

    def _note_corrupt(self, key: str, detail: str, drop: bool = True) -> None:
        """A verification failure: event, count; ``drop`` also removes the
        entry and may quarantine the key."""
        from repro.runtime import resilience as rsl

        with self._lock:
            self.corrupt += 1
            if drop:
                self.misses += 1
                count = self._corrupt_counts.get(key, 0) + 1
                self._corrupt_counts[key] = count
        if self.integrity is not None:
            self.integrity.note_cache_verify(False)
        self._event(rsl.CACHE_CORRUPT, detail=detail, key=key)
        _log.warning("cache entry %s corrupt (%s); treating as miss", key, detail)
        if not drop:
            return
        # Drop the poisoned bytes so the next writer republishes cleanly
        # (save() keeps existing entries).
        freed = self.store.remove(key)
        with self._lock:
            self._bytes = max(0, self._bytes - freed)
        if count >= self.poison_threshold and not self.is_quarantined(key):
            self._quarantine(key, count)

    def _quarantine(self, key: str, failures: int) -> None:
        from repro.runtime import resilience as rsl

        record = {"key": key, "failures": failures, "time": time.time()}
        try:
            durable.write_atomic(
                self._marker_path(key), (json.dumps(record) + "\n").encode()
            )
        except OSError:  # pragma: no cover - marker write is best-effort
            return
        with self._lock:
            self.quarantined += 1
        self._event(
            rsl.CACHE_CORRUPT,
            detail=f"quarantined after {failures} verification failures",
            key=key,
        )
        _log.warning(
            "cache key %s quarantined after %d verification failures",
            key, failures,
        )

    # ------------------------------------------------------------------
    # Publish + evict
    # ------------------------------------------------------------------
    def publish(self, key: str, value: Any) -> bool:
        """Atomically publish ``value`` under ``key``; True if this call
        wrote the entry.

        A key already on disk is kept (entries are immutable, the first
        publish wins); a quarantined key or an unpicklable value is
        skipped — callers lose nothing, the stage result is already in
        memory.  All three return False.
        """
        if self.is_quarantined(key):
            with self._lock:
                self.publish_skipped += 1
            return False
        if self.store.has(key):
            return False
        if not self.store.save(key, value, overwrite=False):
            with self._lock:
                self.publish_skipped += 1
            return False
        size = self.store.size(key)
        with self._lock:
            self.published += 1
            self._bytes += size
        self._evict_if_needed(protect=key)
        return True

    def _evict_if_needed(self, protect: str = "") -> None:
        """Shed LRU entries until under ``max_bytes`` (``protect`` kept)."""
        from repro.runtime import resilience as rsl

        if self.max_bytes is None:
            return
        with self._lock:
            over = self._bytes > self.max_bytes
        if not over:
            return
        entries = []
        for path in self.directory.glob("*.pkl"):
            key = path.stem
            if key == protect:
                continue
            try:
                entries.append((path.stat().st_atime, key))
            except OSError:
                continue
        entries.sort()
        for _, key in entries:
            with self._lock:
                if self._bytes <= self.max_bytes:
                    break
            freed = self.store.remove(key)
            with self._lock:
                self._bytes = max(0, self._bytes - freed)
                self.evicted += 1
                self.evicted_bytes += freed
            self._event(rsl.CACHE_EVICT, detail=f"freed {freed} B", key=key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Machine-readable counters (study metadata / CLI report)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "joined": self.joined,
                "corrupt": self.corrupt,
                "quarantined": self.quarantined,
                "published": self.published,
                "publish_skipped": self.publish_skipped,
                "evicted": self.evicted,
                "evicted_bytes": self.evicted_bytes,
                "released": self.released,
                "reloaded": self.reloaded,
                # Always 0 (no leases any more); kept because the
                # benchmark suite still reads both keys.
                "lease_waits": 0,
                "lease_timeouts": 0,
                "unverified_hits": self.unverified_hits,
                "verify_time_s": round(self.verify_time_s, 6),
                "bytes": self._bytes,
            }

    def describe(self) -> str:
        """One-line human summary for the CLI report."""
        s = self.stats()
        total = s["hits"] + s["misses"]
        rate = (100.0 * s["hits"] / total) if total else 0.0
        return (
            f"reuse: {s['hits']} hits / {s['misses']} misses "
            f"({rate:.0f}% hit rate), {s['joined']} joined in flight, "
            f"{s['corrupt']} corrupt, "
            f"{s['quarantined']} quarantined, {s['evicted']} evicted, "
            f"{s['bytes']} B cached"
        )

    @staticmethod
    def scan(
        directory: Union[str, Path], reapable: Optional[List[Path]] = None
    ) -> Optional[Dict[str, Any]]:
        """Offline cache-dir health scan (``repro recover`` / ``repro gc``).

        Entry count, total bytes, corrupt entries (every entry is fully
        verified), leftover files and quarantine markers; ``None`` when
        ``directory`` does not exist.  ``reapable`` collects what no
        running process will ever read again: leftovers (see
        :func:`repro.util.durable.is_leftover`) and corrupt entries.
        """
        directory = Path(directory)
        if not directory.is_dir():
            return None
        reapable = [] if reapable is None else reapable
        store = CheckpointStore(directory, cadence=None)
        entries = corrupt = leftovers = total_bytes = 0
        for path in sorted(directory.iterdir()):
            if path.suffix == ".pkl":
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
                if store.verify(path.stem) == "corrupt":
                    corrupt += 1
                    reapable.append(path)
            elif durable.is_leftover(path):
                leftovers += 1
                reapable.append(path)
        quarantine = directory / QUARANTINE_DIR
        markers = 0
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                if path.suffix == ".bad":
                    markers += 1
                elif durable.is_leftover(path):
                    leftovers += 1
                    reapable.append(path)
        return {
            "directory": str(directory),
            "entries": entries,
            "bytes": total_bytes,
            "corrupt": corrupt,
            "leftovers": leftovers,
            "quarantined": markers,
        }

    @classmethod
    def gc(
        cls, directory: Union[str, Path], dry_run: bool = False
    ) -> Optional[Dict[str, Any]]:
        """Offline cache-dir sweep (``repro gc``): :meth:`scan`, then reap.

        Intact entries are never touched (capacity is the evictor's job,
        not gc's).  Returns the scan report plus ``freed_bytes`` and
        ``dry_run``.
        """
        reapable: List[Path] = []
        report = cls.scan(directory, reapable)
        if report is None:
            return None
        freed = 0
        for path in reapable:
            try:
                size = path.stat().st_size
                if not dry_run:
                    path.unlink()
            except OSError:
                continue
            freed += size
        report.update(freed_bytes=freed, dry_run=dry_run)
        return report

    # ------------------------------------------------------------------
    # Chaos hooks (FailureInjector)
    # ------------------------------------------------------------------
    def corrupt_entry(self, key: str) -> bool:
        """Silently flip a byte in ``key``'s entry (chaos injection).

        The recorded digest is not updated, so the corruption is exactly
        the bit-rot the verify path must catch at the next hit attempt.
        """
        path = self.store._path(key)
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            return False
        if not data:
            return False
        data[len(data) // 2] ^= 0xFF
        # Deliberately NOT atomic-rename: chaos stands in for in-place
        # media rot, which is what digest verification exists to catch.
        path.write_bytes(bytes(data))
        return True


class StageRelease:
    """The release policy: consumed stage values live in the cache only.

    Installed as :attr:`TaskGraph.on_consumed
    <repro.runtime.graph.TaskGraph.on_consumed>` (see the module
    docstring).  A DONE task is *tracked* while the cache holds its value
    and the driver still does — published at completion, or a verified
    hit at submit — and released when its last consumer completes.
    Called with the runtime lock held, except :meth:`load`: a read,
    made before the lock where it can be (see
    :func:`~repro.runtime.lineage.preload`).
    """

    def __init__(self, cache: ReuseCache) -> None:
        self.cache = cache
        #: The stand-in every released future and task record holds.
        self.held = HeldByCache(self._read)
        self._tracked: Set[int] = set()

    def track(self, task: "TaskInvocation", in_cache: bool) -> None:
        """Note whether ``task``'s value (just set) is in the cache."""
        if in_cache:
            self._tracked.add(task.task_id)
        else:
            self._tracked.discard(task.task_id)

    def release(self, task: "TaskInvocation") -> None:
        """Drop a consumed task's value from the driver if the cache holds it."""
        try:
            self._tracked.remove(task.task_id)
        except KeyError:
            return
        held = self.held
        task.result = held
        for fut in slot_futures(task.outputs):
            fut.set_result(held)
        with self.cache._lock:
            self.cache.released += 1

    def is_released(self, task: "TaskInvocation") -> bool:
        return task.result is self.held

    def load(self, task: "TaskInvocation") -> Any:
        """A released task's whole result from its entry, or :data:`MISS`."""
        return self.cache.acquire(task.content_key, released=True)

    def install(self, task: "TaskInvocation", value: Any) -> None:
        """Put a reloaded value back into the driver; it is tracked again."""
        task.result = value
        futures = slot_futures(task.outputs)
        for fut, slot in zip(futures, (value,) if len(futures) == 1 else value):
            fut.set_result(slot)
        self._tracked.add(task.task_id)

    def _read(self, task: "TaskInvocation") -> Any:
        """A released value for a one-off read (the future stays released)."""
        value = self.load(task)
        if value is MISS:
            raise RuntimeError(
                f"released value of {task.label} is gone from the reuse "
                "cache; read it through compss_wait_on, which recomputes it"
            )
        return value
