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
an all-at-once grid runs each shared stage once with no lease traffic
(counted here as ``joined``).  This module is the path *between*
studies, ``repro serve`` tenants and processes — content keys are
deliberately namespace-free — and only a study's first submitter of a
key consults it: every computed stage is published here, and a
published stage resolves from disk instead of re-executing.

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
* **Single-flight leases.**  A writer claims ``<key>.lease`` with
  ``O_CREAT | O_EXCL`` before computing; concurrent identical stages
  of other tenants' threads or other processes wait with seeded-jitter
  backoff for the publication instead of duplicating the work.  Leases
  are judged stale by wall-clock age, so a crashed writer never wedges
  waiters: they break the stale lease and take over, or time out and
  recompute unleased.  Losing any race merely duplicates computation
  (first atomic publish wins); it can never corrupt a value.
* **Bounded disk.**  ``max_bytes`` caps the store; the evictor sheds
  entries LRU-by-atime (hits ``os.utime`` their entry) and never evicts
  a leased key — the writer that just claimed it is about to need it.

Every anomaly path — corrupt entry, vanished file, stale or wedged
lease, full disk, unpicklable value — degrades to recomputation, so a
study with the cache on produces byte-identical best-config results to
the same study with the cache off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Union

from repro.runtime.checkpoint import CheckpointCorruptError, CheckpointStore
from repro.util.logging_utils import get_logger
from repro.util.seeding import rng_from
from repro.util.validation import check_non_negative, check_positive

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
        ceiling evicts LRU-by-atime until back under (leased keys are
        never evicted).
    lease_timeout_s:
        Wall-clock age past which a lease counts as crashed and may be
        broken by a waiter.
    lease_wait_s:
        How long a submitter waits on a busy lease before degrading to
        an unleased recompute.  ``0`` disables waiting (never blocks).
    poison_threshold:
        Verification failures before a key is quarantined.
    seed:
        Jitter seed for the lease-wait backoff (deterministic per
        ``(seed, key, attempt)``, order-independent).
    integrity:
        Optional :class:`~repro.runtime.integrity.IntegrityManager`
        that accounts hit-time verifications (``cache_verified`` /
        ``cache_corrupt`` counters).
    log / clock:
        Optional resilience log + timestamp source for
        ``cache_hit`` / ``cache_miss`` / ``cache_corrupt`` /
        ``cache_evict`` / ``lease_wait`` events.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: Optional[int] = None,
        lease_timeout_s: float = 60.0,
        lease_wait_s: float = 0.0,
        poison_threshold: int = 3,
        seed: int = 0,
        integrity=None,
        log=None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_bytes is not None:
            check_positive("ReuseCache.max_bytes", max_bytes)
        check_positive("ReuseCache.lease_timeout_s", lease_timeout_s)
        check_non_negative("ReuseCache.lease_wait_s", lease_wait_s)
        check_positive("ReuseCache.poison_threshold", poison_threshold)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / QUARANTINE_DIR).mkdir(exist_ok=True)
        self.max_bytes = max_bytes
        self.lease_timeout_s = float(lease_timeout_s)
        self.lease_wait_s = float(lease_wait_s)
        self.poison_threshold = int(poison_threshold)
        self.seed = int(seed)
        self.integrity = integrity
        self.log = log
        self.clock = clock or (lambda: 0.0)
        #: Entry storage: atomic temp+rename writes, ``.sum`` sidecars,
        #: checksum-verified loads — exactly the spill discipline.
        self.store = CheckpointStore(self.directory, cadence=1)
        # Concurrent submitters (daemon tenant threads) and completion
        # callbacks (executor worker threads) share the counters and the
        # held-lease set.
        self._lock = threading.Lock()
        #: Keys whose lease THIS process currently holds (so eviction
        #: and release don't have to re-read lease files we wrote).
        self._held: Set[str] = set()
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
        self.lease_waits = 0
        self.lease_timeouts = 0
        self.lease_breaks = 0
        #: Hits returned without sidecar verification — zero by
        #: construction; the chaos acceptance asserts it stays zero.
        self.unverified_hits = 0
        #: Wall seconds spent verifying hits (the bench's overhead%).
        self.verify_time_s = 0.0
        self._bytes = self._scan_bytes()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.directory / f"{key}.lease"

    def _marker_path(self, key: str) -> Path:
        return self.directory / QUARANTINE_DIR / f"{key}.bad"

    def is_quarantined(self, key: str) -> bool:
        return self._marker_path(key).exists()

    def _scan_bytes(self) -> int:
        total = 0
        for p in self.directory.iterdir():
            if p.suffix in (".pkl", ".sum"):
                try:
                    total += p.stat().st_size
                except OSError:
                    pass
        return total

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

        On a miss the cache tries to claim the key's single-flight
        lease; whether or not the claim succeeds the caller computes the
        stage and calls :meth:`publish` (or :meth:`abandon` on failure)
        — an unleased compute merely duplicates work some other writer
        is doing, it never blocks correctness.  A busy lease is waited
        on for up to ``lease_wait_s`` (seeded-jitter backoff): the
        publication appearing turns the miss into a hit; a lease older
        than ``lease_timeout_s`` is broken (crashed writer); a timeout
        degrades to an unleased recompute.
        """
        from repro.runtime import resilience as rsl

        if self.is_quarantined(key):
            with self._lock:
                self.misses += 1
            self._event(rsl.CACHE_MISS, detail="quarantined", key=key)
            return MISS
        value = self._fetch_verified(key)
        if value is not MISS:
            return value
        if self._try_lease(key):
            with self._lock:
                self.misses += 1
            self._event(rsl.CACHE_MISS, detail="lease acquired", key=key)
            return MISS
        return self._wait_for_writer(key)

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

        path = self.store._path(key)
        if not path.exists():
            return MISS
        started = time.perf_counter()
        try:
            value = self.store.load_verified(key)
        except CheckpointCorruptError as exc:
            self._note_corrupt(key, str(exc))
            return MISS
        except OSError:
            # Vanished between exists() and open (concurrent eviction):
            # an ordinary miss.
            return MISS
        elapsed = time.perf_counter() - started
        try:
            os.utime(path)  # LRU clock for the evictor
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
        self.store.remove(key)
        with self._lock:
            self._bytes = max(0, self._scan_bytes())
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
    # Single-flight leases
    # ------------------------------------------------------------------
    def _lease_payload(self) -> bytes:
        return (
            json.dumps(
                {
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "time": time.time(),
                }
            )
            + "\n"
        ).encode("utf-8")

    def _try_lease(self, key: str) -> bool:
        """Claim the key's lease with O_CREAT|O_EXCL (crash-safe)."""
        path = self._lease_path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError:
            # Unwritable cache dir degrades to unleased computes.
            return False
        try:
            os.write(fd, self._lease_payload())
        finally:
            os.close(fd)
        with self._lock:
            self._held.add(key)
        return True

    def _lease_age(self, key: str) -> Optional[float]:
        """Seconds since the lease was written; None if no lease."""
        try:
            return max(0.0, time.time() - self._lease_path(key).stat().st_mtime)
        except OSError:
            return None

    def _break_lease(self, key: str) -> bool:
        """Atomically take over a stale lease (crashed writer)."""
        from repro.runtime import resilience as rsl

        path = self._lease_path(key)
        tmp = path.with_suffix(f".takeover-{os.getpid()}-{threading.get_ident()}")
        try:
            tmp.write_bytes(self._lease_payload())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        with self._lock:
            self._held.add(key)
            self.lease_breaks += 1
        self._event(rsl.LEASE_WAIT, detail="broke stale lease", key=key)
        return True

    def _wait_for_writer(self, key: str) -> Any:
        """Someone else computes ``key``: wait, take over, or degrade."""
        from repro.runtime import resilience as rsl

        deadline = time.time() + self.lease_wait_s
        attempt = 0
        waited = self.lease_wait_s > 0.0
        if waited:
            with self._lock:
                self.lease_waits += 1
        while time.time() < deadline:
            attempt += 1
            # Deterministic per (seed, key, attempt) — same jitter in
            # any interleaving, so same-seed chaos reruns are stable.
            rng = rng_from(self.seed, f"lease/{key}/{attempt}")
            delay = min(0.25, 0.02 * (2.0 ** min(attempt, 4)))
            time.sleep(delay * (0.5 + rng.random()))
            value = self._fetch_verified(key)
            if value is not MISS:
                self._event(
                    rsl.LEASE_WAIT,
                    detail=f"hit after wait ({attempt} polls)", key=key,
                )
                return value
            age = self._lease_age(key)
            if age is None:
                # Writer released without publishing (failed/abandoned):
                # contend for the lease ourselves.
                if self._try_lease(key):
                    with self._lock:
                        self.misses += 1
                    self._event(
                        rsl.CACHE_MISS, detail="lease acquired after wait",
                        key=key,
                    )
                    return MISS
            elif age > self.lease_timeout_s and self._break_lease(key):
                with self._lock:
                    self.misses += 1
                self._event(
                    rsl.CACHE_MISS, detail="stale lease broken", key=key
                )
                return MISS
        with self._lock:
            self.misses += 1
            if waited:
                self.lease_timeouts += 1
        self._event(
            rsl.LEASE_WAIT if waited else rsl.CACHE_MISS,
            detail="timed out; recomputing unleased" if waited
            else "lease busy; recomputing unleased",
            key=key,
        )
        return MISS

    def release(self, key: str) -> None:
        """Drop the lease if this process holds it (idempotent)."""
        with self._lock:
            held = key in self._held
            self._held.discard(key)
        if held:
            try:
                self._lease_path(key).unlink()
            except OSError:
                pass

    def abandon(self, key: str) -> None:
        """The computation failed: free the lease so waiters can retry."""
        self.release(key)

    def holds_lease(self, key: str) -> bool:
        with self._lock:
            return key in self._held

    def release_all(self) -> None:
        """Drop every lease this process still holds (clean shutdown).

        A crashed process skips this by definition — its leases expire
        through the stale-age path instead.
        """
        with self._lock:
            held = list(self._held)
        for key in held:
            self.release(key)

    # ------------------------------------------------------------------
    # Publish + evict
    # ------------------------------------------------------------------
    def publish(self, key: str, value: Any) -> bool:
        """Atomically publish ``value`` under ``key``; release the lease.

        First publisher wins (entries are immutable); a quarantined key
        or an unpicklable value is skipped — callers lose nothing, the
        stage result is already in memory.
        """
        try:
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
                size = 0
                for path in (self.store._path(key), self.store._sum_path(key)):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
                with self._lock:
                    self.published += 1
                    self._bytes += size
                self._evict_if_needed(protect=key)
            return True
        finally:
            self.release(key)

    def _evict_if_needed(self, protect: str = "") -> None:
        """Shed LRU entries until under ``max_bytes`` (leases pinned)."""
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
            with self._lock:
                if key in self._held:
                    continue
            if self._lease_path(key).exists():
                continue  # an active writer/reader elsewhere pinned it
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_atime, st.st_size, key))
        entries.sort()
        for _, size, key in entries:
            with self._lock:
                if self._bytes <= self.max_bytes:
                    break
            sum_size = 0
            try:
                sum_size = self.store._sum_path(key).stat().st_size
            except OSError:
                pass
            self.store.remove(key)
            freed = size + sum_size
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
                "lease_waits": self.lease_waits,
                "lease_timeouts": self.lease_timeouts,
                "lease_breaks": self.lease_breaks,
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
            f"{s['lease_waits']} lease waits, {s['bytes']} B cached"
        )

    @staticmethod
    def scan(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
        """Offline cache-dir health scan (``repro recover`` / ``repro gc``).

        Returns ``None`` when ``directory`` does not exist; otherwise
        entry count, total bytes, corrupt sidecars found (full verify of
        every entry), live leases and quarantine markers.
        """
        directory = Path(directory)
        if not directory.is_dir():
            return None
        store = CheckpointStore(directory, cadence=None)
        entries = corrupt = total_bytes = leases = stale = 0
        now = time.time()
        for path in sorted(directory.iterdir()):
            if path.suffix == ".pkl":
                entries += 1
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                if store.verify(path.stem) == "corrupt":
                    corrupt += 1
            elif path.suffix == ".sum":
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
            elif path.suffix == ".lease":
                leases += 1
                try:
                    if now - path.stat().st_mtime > 60.0:
                        stale += 1
                except OSError:
                    pass
        quarantine = directory / QUARANTINE_DIR
        quarantined = (
            len(list(quarantine.glob("*.bad"))) if quarantine.is_dir() else 0
        )
        return {
            "directory": str(directory),
            "entries": entries,
            "bytes": total_bytes,
            "corrupt": corrupt,
            "leases": leases,
            "stale_leases": stale,
            "quarantined": quarantined,
        }

    @staticmethod
    def gc(
        directory: Union[str, Path],
        lease_timeout_s: float = 60.0,
        dry_run: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """Offline cache-dir sweep (``repro gc``).

        Removes what no running process will ever read again: stale
        lease files (older than ``lease_timeout_s`` — a crashed writer's
        leftovers), torn ``.tmp``/``.sumtmp`` publications (invisible to
        readers by the atomic-rename protocol) and entries whose payload
        fails sidecar verification (a reader would only quarantine them
        later).  *Fresh* leases are honoured — their writers may still
        publish.  Intact entries are never touched; capacity is the
        evictor's job, not gc's.  Returns ``None`` when ``directory``
        does not exist.
        """
        directory = Path(directory)
        if not directory.is_dir():
            return None
        store = CheckpointStore(directory, cadence=None)
        now = time.time()
        stale_leases = torn = corrupt = 0
        freed = 0

        def _reap(path: Path) -> int:
            try:
                size = path.stat().st_size
            except OSError:
                return 0
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    return 0
            return size

        for path in sorted(directory.iterdir()):
            if path.suffix == ".lease":
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age > lease_timeout_s:
                    stale_leases += 1
                    freed += _reap(path)
            elif path.suffix in (".tmp", ".sumtmp") or ".takeover-" in path.name:
                torn += 1
                freed += _reap(path)
            elif path.suffix == ".pkl":
                if store.verify(path.stem) == "corrupt":
                    corrupt += 1
                    freed += _reap(path)
                    freed += _reap(store._sum_path(path.stem))
        return {
            "directory": str(directory),
            "stale_leases": stale_leases,
            "torn_temps": torn,
            "corrupt_entries": corrupt,
            "freed_bytes": freed,
            "dry_run": dry_run,
        }

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

    def wedge_lease(self, key: str) -> bool:
        """Leave a lease behind with no writer (simulated SIGKILL).

        The holder keeps the on-disk lease file but forgets it ever held
        it — exactly the state a SIGKILLed writer leaves.  Waiters must
        stale-expire it or time out and recompute.
        """
        with self._lock:
            held = key in self._held
            self._held.discard(key)
        if not held:
            return self._try_lease(key) and self.wedge_lease(key)
        return True
