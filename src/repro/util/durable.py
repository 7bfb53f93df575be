"""Durable writes: the one module that renames and fsyncs.

The rule (DESIGN.md, "Durability rule"): a whole file goes to a unique
temp file that is fsync'd, renamed over the target, and followed by a
directory fsync.  A pickled value is one *entry* file whose first line
is :data:`ENTRY_TAG` plus the sha256 of the pickle after it, proven
before every unpickle.  Every call goes through :data:`fs`, so a test
can swap in a recorder and replay each crash state a write sequence
allows.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import IO, Any, Tuple, Union

#: First bytes of an entry; the payload's hex sha256 and a newline follow.
ENTRY_TAG = b"repro-entry sha256:"

#: Suffixes of files no reader opens: this module's temps, and what
#: older versions wrote (digest sidecars and cache leases).
_LEFTOVER_SUFFIXES = frozenset((".tmp", ".sumtmp", ".sum", ".lease"))


class CheckpointCorruptError(RuntimeError):
    """An entry lacks a matching digest header or does not unpickle.

    Every reader treats it as *missing* and recomputes the value.
    """


class OsFileSystem:
    """The file-system calls behind every durable write."""

    def create_temp(self, target: Path) -> Tuple[IO[bytes], Path]:
        fd, tmp = tempfile.mkstemp(
            prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
        )
        return os.fdopen(fd, "wb"), Path(tmp)

    def fsync_file(self, fh: IO) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def rename(self, src: Path, dst: Path) -> None:
        os.replace(src, dst)

    def fsync_dir(self, directory: Path) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def open_append(self, path: Path) -> IO[str]:
        return open(path, "a", encoding="utf-8")  # noqa: SIM115 - caller closes


#: The calls in use; a test replaces it with a recording fake.
fs = OsFileSystem()


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data``; on failure the target is untouched
    and the temp file removed."""
    path = Path(path)
    fh, tmp = fs.create_temp(path)
    try:
        with fh:
            fh.write(data)
            fs.fsync_file(fh)
        fs.rename(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fs.fsync_dir(path.parent)


def dump_entry(path: Union[str, Path], value: Any) -> None:
    """Write ``value`` as one entry.  An unpicklable value raises what
    ``pickle.dumps`` raises, before anything is written."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    write_atomic(path, ENTRY_TAG + digest + b"\n" + payload)


def load_entry(path: Union[str, Path]) -> Any:
    """The entry's value, once its digest is proven.  Raises
    :class:`CheckpointCorruptError`, or ``FileNotFoundError``."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(len(ENTRY_TAG) + 65)
        payload = fh.read()
    digest = hashlib.sha256(payload).hexdigest()
    if header != ENTRY_TAG + digest.encode("ascii") + b"\n":
        raise CheckpointCorruptError(
            f"entry {path.name}: no header recording its sha256 {digest[:16]}…"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickle failure is corruption
        raise CheckpointCorruptError(
            f"entry {path.name}: unreadable pickle ({exc!r})"
        ) from exc


def verify_entry(path: Union[str, Path]) -> str:
    """Integrity state of one entry: ``"ok"`` / ``"corrupt"`` / ``"missing"``."""
    try:
        load_entry(path)
    except CheckpointCorruptError:
        return "corrupt"
    except OSError:
        return "missing"
    return "ok"


def open_append(path: Union[str, Path]) -> IO[str]:
    """Open ``path`` to append text; fsync its directory if this created it.
    The caller fsyncs what it writes with ``fs.fsync_file``."""
    path = Path(path)
    created = not path.exists()
    fh = fs.open_append(path)
    if created:
        fs.fsync_dir(path.parent)
    return fh


def is_leftover(path: Path) -> bool:
    """Whether no reader will ever open ``path`` (``repro gc`` reaps it)."""
    return path.suffix in _LEFTOVER_SUFFIXES or ".takeover-" in path.name
