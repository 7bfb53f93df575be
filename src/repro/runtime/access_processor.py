"""Data-access processor: object versioning and dependency detection.

Mirrors the COMPSs access processor: every distinct datum touched by tasks
gets a data id ``d<N>``; every write bumps its version, yielding the
``d1v2``-style labels seen on the edges of the paper's Fig. 3.  Dependency
rules per parameter direction:

* read (IN/INOUT): depend on the last writer of the datum's current
  version (read-after-write);
* write (OUT/INOUT): record this task as the writer of a new version;
  subsequent readers depend on it. Writes also serialise against prior
  readers (anti-dependency) to preserve sequential semantics.

Futures are handled as data too: the producing task is the writer of the
future's datum, and holds its futures itself (``TaskInvocation.outputs``).
A return slot gets its data id at submit, but its
:class:`DataInfo` / :class:`DataVersion` only when something first needs
them — a consumer reading or updating the future, a lineage query, or
integrity sealing.  An output nothing reads (the common streaming shape)
never gets a record.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.pycompss_api.parameter import ParameterSpec
from repro.runtime.future import Future, is_future, slot_futures
from repro.runtime.task_definition import TaskInvocation

class DataVersion:
    """One version of a datum: ``d<data_id>v<version>``.

    A ``__slots__`` class rather than a dataclass: one instance is
    created per task output on the submission hot path, and the
    dataclass ctor alone was the single largest cost at 100k tasks.

    Attributes: ``writer`` is the producing task (None for main-program
    data); ``readers`` the tasks that read this version (the shared empty
    tuple until the first read — most versions are never read by a
    task); ``invalidated``
    is set when the version's bytes were lost with a failed node and
    cleared when the writer re-executes (lineage recovery); ``checksum``
    is the content digest sealed at write time by the integrity layer
    (None until sealed / when ``verify_outputs`` is off).
    """

    __slots__ = (
        "data_id", "version", "writer", "readers", "invalidated", "checksum"
    )

    def __init__(
        self,
        data_id: int,
        version: int,
        writer: Optional[TaskInvocation] = None,
    ):
        self.data_id = data_id
        self.version = version
        self.writer = writer
        self.readers: Sequence[TaskInvocation] = ()
        self.invalidated = False
        self.checksum: Optional[str] = None

    def __repr__(self) -> str:
        return (
            f"DataVersion({self.label}, writer="
            f"{self.writer.label if self.writer else None})"
        )

    @property
    def label(self) -> str:
        return f"d{self.data_id}v{self.version}"


class DataInfo:
    """All versions of one datum (slots: one per task output, hot path)."""

    __slots__ = ("data_id", "versions")

    def __init__(self, data_id: int):
        self.data_id = data_id
        self.versions: List[DataVersion] = []

    @property
    def current(self) -> DataVersion:
        return self.versions[-1]

    def new_version(self, writer: Optional[TaskInvocation]) -> DataVersion:
        v = DataVersion(self.data_id, len(self.versions) + 1, writer)
        self.versions.append(v)
        return v


class AccessProcessor:
    """Tracks data accesses and emits dependency edges.

    Objects are identified by ``id()``; the processor keeps a strong
    reference to every registered object so CPython cannot recycle the id
    while the runtime is alive (cleared by :meth:`reset` /
    ``compss_delete_object``).
    """

    def __init__(self) -> None:
        self._data_ids = itertools.count(1)
        self._by_obj_id: Dict[int, DataInfo] = {}
        self._keepalive: Dict[int, Any] = {}
        #: return-slot data id -> its record, made on first need.
        self._future_data: Dict[int, DataInfo] = {}
        self._by_path: Dict[str, DataInfo] = {}
        #: writer task_id -> versions it wrote through OUT / INOUT
        #: parameters (return slots are found through the task's futures).
        self._by_writer: Dict[int, List[DataVersion]] = {}
        #: True once any version was ever invalidated — lets the
        #: per-completion revalidation pass skip entirely in the
        #: (overwhelmingly common) no-failure run.
        self.any_invalidated = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _info_for_object(self, obj: Any) -> DataInfo:
        key = id(obj)
        info = self._by_obj_id.get(key)
        if info is None:
            info = DataInfo(next(self._data_ids))
            info.new_version(writer=None)  # initial version from main program
            self._by_obj_id[key] = info
            self._keepalive[key] = obj
        return info

    def register_output_future(self, fut: Future) -> str:
        """Register a task's return slot as a written datum; returns label.

        Reserves the slot's data id and files the future in its task's
        ``outputs`` (slot order); the record itself waits for
        :meth:`_info_for_future`.
        """
        fut.data_id = data_id = next(self._data_ids)
        task = fut.invocation
        held = task.outputs
        if held is None:
            task.outputs = fut
        elif type(held) is Future:
            task.outputs = (held, fut)
        else:
            task.outputs = held + (fut,)
        return f"d{data_id}v1"

    @staticmethod
    def futures_of(task: TaskInvocation) -> Sequence[Future]:
        """The return-slot futures of ``task`` (slot order)."""
        return slot_futures(task.outputs)

    def _info_for_future(self, fut: Future) -> DataInfo:
        """The return slot's record, made (version 1, by its task) on
        first need."""
        data_id = fut.data_id
        info = self._future_data.get(data_id)
        if info is None:
            if data_id is None:
                # Released by a streaming free (or never registered): a
                # late reader books the datum under a fresh id.
                fut.data_id = data_id = next(self._data_ids)
            info = DataInfo(data_id)
            info.new_version(writer=fut.invocation)
            self._future_data[data_id] = info
        return info

    def _info_for_path(self, path: str) -> DataInfo:
        """FILE parameters are identified by their path, not object id."""
        info = self._by_path.get(path)
        if info is None:
            info = DataInfo(next(self._data_ids))
            info.new_version(writer=None)
            self._by_path[path] = info
        return info

    def last_writer_of_path(self, path: str) -> Optional[TaskInvocation]:
        """Most recent task that wrote ``path`` (None if untracked/main)."""
        info = self._by_path.get(path)
        if info is None:
            return None
        return info.current.writer

    # ------------------------------------------------------------------
    # Access processing
    # ------------------------------------------------------------------
    def process_access(
        self, task: TaskInvocation, obj: Any, spec: ParameterSpec
    ) -> Tuple[Set[TaskInvocation], List[str]]:
        """Record one parameter access.

        Returns ``(dependencies, edge_labels)`` — the tasks this access
        makes ``task`` depend on, and the data-version labels for graph
        edges (Fig. 3 style).
        """
        deps: Set[TaskInvocation] = set()
        labels: List[str] = []
        if spec.is_file and isinstance(obj, str):
            info = self._info_for_path(obj)
        elif is_future(obj):
            info = self._info_for_future(obj)
        elif self._is_trackable(obj):
            info = self._info_for_object(obj)
        else:
            return deps, labels

        current = info.current
        if spec.direction.reads:
            if current.writer is not None and current.writer is not task:
                deps.add(current.writer)
            if current.readers:
                current.readers.append(task)
            else:
                current.readers = [task]
            labels.append(current.label)
        if spec.direction.writes:
            # Anti-dependency: a writer must wait for earlier readers.
            for reader in current.readers:
                if reader is not task:
                    deps.add(reader)
            if current.writer is not None and current.writer is not task:
                deps.add(current.writer)
            new = info.new_version(writer=task)
            self._track_writer(new)
            labels.append(new.label)
        return deps, labels

    # ------------------------------------------------------------------
    # Lineage / invalidation (node-loss data recovery)
    # ------------------------------------------------------------------
    def _track_writer(self, version: DataVersion) -> None:
        if version.writer is not None:
            self._by_writer.setdefault(version.writer.task_id, []).append(version)

    def versions_written_by(self, task: TaskInvocation) -> List[DataVersion]:
        """Data versions produced by ``task`` (its output lineage).

        Parameter writes first, in access order, then the return slots —
        the order submit registered them in.
        """
        out = list(self._by_writer.get(task.task_id, ()))
        for fut in self.futures_of(task):
            out.append(self._info_for_future(fut).versions[0])
        return out

    def future_versions(self, task: TaskInvocation) -> List[Tuple[int, DataVersion]]:
        """``(return_slot, version)`` pairs for ``task``'s return values.

        Return-slot versions carry the payload that actually moves
        between tasks (futures); INOUT versions mutate caller objects in
        place.  The integrity layer snapshots only the former in local
        mode.
        """
        return [
            (fut.index, self._info_for_future(fut).versions[0])
            for fut in self.futures_of(task)
        ]

    def invalidate_versions_written_by(self, tasks) -> List[str]:
        """Mark the versions written by ``tasks`` as lost; returns labels.

        Called when a node failure destroys resident data; the labels
        feed the ``node_lost`` resilience event.  Versions revalidate
        when their writer completes again
        (:meth:`revalidate_versions_written_by`).
        """
        labels: List[str] = []
        for task in tasks:
            for version in self.versions_written_by(task):
                if not version.invalidated:
                    version.invalidated = True
                    labels.append(version.label)
        if labels:
            self.any_invalidated = True
        return labels

    def revalidate_versions_written_by(self, task: TaskInvocation) -> None:
        """Clear the lost flag on ``task``'s outputs (it re-executed).

        Only existing records can carry the flag, so none is made here.
        """
        for version in self._by_writer.get(task.task_id, ()):
            version.invalidated = False
        for fut in self.futures_of(task):
            info = self._future_data.get(fut.data_id)
            if info is not None:
                info.versions[0].invalidated = False

    def invalidated_labels(self) -> List[str]:
        """Labels of all currently-invalidated versions, in
        ``(data_id, version)`` order (introspection)."""
        lost = [
            v
            for versions in self._by_writer.values()
            for v in versions
            if v.invalidated
        ]
        lost.extend(
            info.versions[0]
            for info in self._future_data.values()
            if info.versions[0].invalidated
        )
        lost.sort(key=lambda v: (v.data_id, v.version))
        return [v.label for v in lost]

    def release_task(self, task: TaskInvocation) -> None:
        """Drop a freed task's future/writer registrations (streaming).

        Called via ``TaskGraph.on_free`` once every consumer of the task
        has completed — nothing can read these versions again, so the
        version objects (and through them the task invocation) become
        collectable.  The task lets go of its futures, which breaks the
        task-future reference cycle, so reference counting frees both.
        A future the caller still holds forgets its data id, so a late
        reader books a fresh datum.  Object-keyed data (INOUT containers)
        stays: it is bounded by live user objects, not by task count.
        """
        held = task.outputs
        if held is not None:
            task.outputs = None
            future_data = self._future_data
            # slot_futures, inline: this runs once per freed task.
            for fut in (held,) if type(held) is Future else held:
                if future_data:
                    future_data.pop(fut.data_id, None)
                fut.data_id = None
        if self._by_writer:
            self._by_writer.pop(task.task_id, None)

    @staticmethod
    def _is_trackable(obj: Any) -> bool:
        """Only mutable containers / arrays create object dependencies.

        Scalars and strings are value-like: two tasks receiving ``5`` must
        not be serialised against each other.
        """
        return not isinstance(obj, (int, float, complex, bool, str, bytes, type(None)))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def delete_object(self, obj: Any) -> bool:
        """Forget an object (``compss_delete_object``).  True if known."""
        key = id(obj)
        self._keepalive.pop(key, None)
        return self._by_obj_id.pop(key, None) is not None

    def reset(self) -> None:
        """Drop all tracked data (used between runtime sessions)."""
        self._by_obj_id.clear()
        self._keepalive.clear()
        self._future_data.clear()
        self._by_path.clear()
        self._by_writer.clear()
        self.any_invalidated = False
        self._data_ids = itertools.count(1)

    @property
    def n_tracked(self) -> int:
        """Number of tracked plain objects (not futures)."""
        return len(self._by_obj_id)
