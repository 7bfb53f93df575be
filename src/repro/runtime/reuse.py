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

* **Verified hits.**  Every entry is a pickle with a ``.sum`` sha256
  sidecar (the same atomic-publication discipline as
  :class:`~repro.runtime.checkpoint.CheckpointStore`, which this class
  builds on).  A hit is only a hit after the bytes re-hash to the
  sidecar and unpickle cleanly; anything else is a *miss* (recompute),
  never a wrong restore.  Verifications are accounted through the
  runtime's :class:`~repro.runtime.integrity.IntegrityManager` so the
  chaos acceptance can assert zero unverified cache reads.
* **Quarantine.**  A key whose entry fails verification
  ``poison_threshold`` times is quarantined (a ``quarantine/<key>.bad``
  marker): something is systematically corrupting it, so the cache stops
  trusting *and* stops republishing it — the stage simply recomputes
  forever, which is always correct.
* **Atomic publication.**  Entries become visible only via
  ``os.replace`` of a fully-fsynced temp file; a SIGKILL mid-write
  leaves a ``.tmp`` no reader ever opens.
  Entries are immutable and the first publish wins, so two processes
  that miss the same key concurrently both compute it and the loser's
  publish is a no-op: a race duplicates work, never corrupts a value.
* **Bounded disk.**  ``max_bytes`` caps the store; the evictor sheds
  entries LRU-by-atime (hits ``os.utime`` their entry) and never evicts
  the key whose publish triggered the pass.

Every anomaly path — corrupt entry, vanished file, a writer that died
before publishing, full disk, unpicklable value — degrades to
recomputation, so a study with the cache on produces byte-identical
best-config results to the same study with the cache off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.runtime.checkpoint import CheckpointCorruptError, CheckpointStore
from repro.util.logging_utils import get_logger
from repro.util.validation import check_positive

_log = get_logger("runtime.reuse")

#: Sub-directory (inside the cache dir) holding poison markers.
QUARANTINE_DIR = "quarantine"

#: Sentinel distinguishing "miss — compute it" from a cached ``None``.
MISS = object()

#: Files no reader ever opens: torn publications (``.tmp``/``.sumtmp``)
#: and the single-flight lease files of older versions (``.lease``,
#: ``.takeover-*``).  ``gc`` reaps them.
_LEFTOVER_SUFFIXES = (".tmp", ".sumtmp", ".lease")


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
        #: Entry storage: atomic temp+rename writes, ``.sum`` sidecars,
        #: checksum-verified loads — exactly the spill discipline.
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
        #: Hits returned without sidecar verification — zero by
        #: construction; the chaos acceptance asserts it stays zero.
        self.unverified_hits = 0
        #: Wall seconds spent verifying hits (the bench's overhead%).
        self.verify_time_s = 0.0
        self._bytes = sum(
            self._entry_bytes(p.stem) for p in self.directory.glob("*.pkl")
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _marker_path(self, key: str) -> Path:
        return self.directory / QUARANTINE_DIR / f"{key}.bad"

    def is_quarantined(self, key: str) -> bool:
        return self._marker_path(key).exists()

    def _entry_bytes(self, key: str) -> int:
        size = 0
        for path in (self.store._path(key), self.store._sum_path(key)):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return size

    def _event(self, kind: str, detail: str = "", key: str = "") -> None:
        if self.log is not None:
            self.log.record(
                self.clock(), kind, task_label=key and f"key={key}",
                detail=detail,
            )

    # ------------------------------------------------------------------
    # Hit path
    # ------------------------------------------------------------------
    def acquire(self, key: str) -> Any:
        """Resolve ``key``: a verified value, or :data:`MISS` to compute.

        Never blocks: on a miss the caller computes the stage and calls
        :meth:`publish`.  A concurrent writer of the same key elsewhere
        merely duplicates the work — the first publish wins.
        """
        from repro.runtime import resilience as rsl

        quarantined = self.is_quarantined(key)
        if not quarantined:
            value = self._fetch_verified(key)
            if value is not MISS:
                return value
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

    def _fetch_verified(self, key: str) -> Any:
        """Verified load of ``key``; corrupt/truncated/absent == MISS."""
        from repro.runtime import resilience as rsl

        started = time.perf_counter()
        try:
            value = self.store.load_verified(key)
        except CheckpointCorruptError as exc:
            self._note_corrupt(key, str(exc))
            return MISS
        except OSError:
            # Absent, or evicted concurrently: an ordinary miss.
            return MISS
        elapsed = time.perf_counter() - started
        try:
            os.utime(self.store._path(key))  # LRU clock for the evictor
        except OSError:
            pass
        with self._lock:
            self.hits += 1
            self.verify_time_s += elapsed
        if self.integrity is not None:
            self.integrity.note_cache_verify(True)
        self._event(rsl.CACHE_HIT, key=key)
        return value

    def _note_corrupt(self, key: str, detail: str) -> None:
        """A verification failure: event, count, maybe quarantine."""
        from repro.runtime import resilience as rsl

        with self._lock:
            self.corrupt += 1
            self.misses += 1
            count = self._corrupt_counts.get(key, 0) + 1
            self._corrupt_counts[key] = count
        if self.integrity is not None:
            self.integrity.note_cache_verify(False)
        self._event(rsl.CACHE_CORRUPT, detail=detail, key=key)
        _log.warning("cache entry %s corrupt (%s); treating as miss", key, detail)
        # Drop the poisoned bytes so the next writer republishes cleanly
        # (save() keeps existing entries).
        freed = self._entry_bytes(key)
        self.store.remove(key)
        with self._lock:
            self._bytes = max(0, self._bytes - freed)
        if count >= self.poison_threshold and not self.is_quarantined(key):
            self._quarantine(key, count)

    def _quarantine(self, key: str, failures: int) -> None:
        from repro.runtime import resilience as rsl

        marker = self._marker_path(key)
        tmp = marker.with_suffix(".tmp")
        try:
            tmp.write_text(
                json.dumps({"key": key, "failures": failures, "time": time.time()})
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, marker)
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
        """Atomically publish ``value`` under ``key``.

        First publisher wins (entries are immutable); a quarantined key
        or an unpicklable value is skipped — callers lose nothing, the
        stage result is already in memory.
        """
        if self.is_quarantined(key):
            with self._lock:
                self.publish_skipped += 1
            return False
        existed = self.store.has(key)
        if not self.store.save(key, value, overwrite=False):
            with self._lock:
                self.publish_skipped += 1
            return False
        if not existed:
            size = self._entry_bytes(key)
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
            freed = self._entry_bytes(key)
            self.store.remove(key)
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
        ``_LEFTOVER_SUFFIXES``) and corrupt entries with their sidecars.
        """
        directory = Path(directory)
        if not directory.is_dir():
            return None
        reapable = [] if reapable is None else reapable
        store = CheckpointStore(directory, cadence=None)
        entries = corrupt = leftovers = total_bytes = 0
        for path in sorted(directory.iterdir()):
            if path.suffix in (".pkl", ".sum"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                if path.suffix == ".pkl":
                    entries += 1
                    if store.verify(path.stem) == "corrupt":
                        corrupt += 1
                        reapable += [path, store._sum_path(path.stem)]
            elif path.suffix in _LEFTOVER_SUFFIXES or ".takeover-" in path.name:
                leftovers += 1
                reapable.append(path)
        quarantine = directory / QUARANTINE_DIR
        return {
            "directory": str(directory),
            "entries": entries,
            "bytes": total_bytes,
            "corrupt": corrupt,
            "leftovers": leftovers,
            "quarantined": (
                len(list(quarantine.glob("*.bad"))) if quarantine.is_dir() else 0
            ),
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
        """Silently flip bytes in ``key``'s entry (chaos injection).

        The sidecar is left intact, so the corruption is exactly the
        bit-rot the verify path must catch at the next hit attempt.
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
        # media rot, which is what sidecar verification exists to catch.
        path.write_bytes(bytes(data))
        return True
