"""Span recorder for the traced rep: wraps public methods from outside.

The suite may not edit ``src/``, so layer boundaries are observed by
replacing public methods *at class level* with a timing wrapper, in the
traced subprocess only.  Each span is ``(name, parent, start, end)``;
spans nest by call stack, so a span's parent is always on its own
thread and each thread keeps its own list (no locking on the hot path).
Spans stay in memory until the rep ends.

A layer's *self time* is its span's duration minus the durations of its
direct child spans — e.g. ``runtime.submit`` self time excludes the
``graph.add_task`` and ``journal.append`` calls made inside it.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, class, method, span name).  Public methods only.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("repro.runtime.runtime", "COMPSsRuntime", "start", "runtime.start"),
    ("repro.runtime.runtime", "COMPSsRuntime", "stop", "runtime.stop"),
    ("repro.runtime.runtime", "COMPSsRuntime", "submit", "runtime.submit"),
    ("repro.runtime.runtime", "COMPSsRuntime", "complete_task", "runtime.complete_task"),
    ("repro.runtime.runtime", "COMPSsRuntime", "wait_on", "runtime.wait_on"),
    ("repro.runtime.access_processor", "AccessProcessor", "process_access", "access.process_access"),
    ("repro.runtime.access_processor", "AccessProcessor", "release_task", "access.release_task"),
    ("repro.runtime.graph", "TaskGraph", "add_task", "graph.add_task"),
    ("repro.runtime.graph", "TaskGraph", "mark_done", "graph.mark_done"),
    ("repro.runtime.dispatch", "DispatchEngine", "ingest", "dispatch.ingest"),
    ("repro.runtime.dispatch", "DispatchEngine", "drain", "dispatch.drain"),
    ("repro.runtime.dispatch", "DispatchEngine", "schedule_round", "dispatch.schedule_round"),
    ("repro.runtime.resources", "ResourcePool", "try_allocate", "resources.try_allocate"),
    ("repro.simcluster.events", "DiscreteEventSimulator", "step_batch", "simcluster.step_batch"),
    ("repro.runtime.checkpoint", "TaskKeyer", "key_for", "journal.key_for"),
    ("repro.runtime.checkpoint", "WriteAheadJournal", "append", "journal.append"),
    ("repro.runtime.checkpoint", "WriteAheadJournal", "close", "journal.close"),
    ("repro.runtime.integrity", "IntegrityManager", "seal_local", "integrity.seal_local"),
    ("repro.runtime.integrity", "IntegrityManager", "verify_writer", "integrity.verify_writer"),
    ("repro.runtime.reuse", "ReuseCache", "acquire", "reuse.acquire"),
    ("repro.runtime.reuse", "ReuseCache", "publish", "reuse.publish"),
    ("repro.hpo.runner", "PyCOMPSsRunner", "run", "hpo.runner.run"),
    ("repro.hpo.algorithms.grid", "GridSearch", "ask", "hpo.ask"),
    ("repro.service.daemon", "HPOService", "start", "service.start"),
    ("repro.service.daemon", "HPOService", "step", "service.step"),
    ("repro.service.daemon", "HPOService", "shutdown", "service.shutdown"),
    ("repro.service.client", "ServiceClient", "submit", "service.client_submit"),
]

#: The harness's own spans: the timed region (root) and the loop of
#: ``@task`` calls, whose self time is the ``pycompss_api`` wrapper cost.
ROOT = "bench.timed_region"
TASK_CALLS = "api.task_calls"

#: Spans that lie outside the timed region by design (set-up, teardown).
LIFECYCLE = (
    "runtime.start", "runtime.stop", "journal.close",
    "service.start", "service.shutdown",
)

#: A full-size simulated workload records ~1.5M spans (~150 B a line);
#: the file keeps the first this-many, the summary covers all of them.
MAX_TRACE_LINES = 200_000


class Recorder:
    """In-memory span store; one list and one stack per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._tls = threading.local()
        self._threads: List[List[Optional[tuple]]] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            spans: List[Optional[tuple]] = []
            with self._lock:
                self._threads.append(spans)
            self._tls.state = state = (spans, [])
            return state

    def wrap(self, func, name: str):
        """Return ``func`` wrapped so every call records one span.

        Same bookkeeping as :meth:`span`, inlined: a generator-based
        context manager per call would double the cost on paths taken a
        million times a rep.
        """
        nid = self.name_id(name)
        get_state = self._state

        def traced(*args, **kwargs):
            spans, stack = get_state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        nid = self.name_id(name)
        spans, stack = self._state()
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (nid, parent, t0, t1)

    # ------------------------------------------------------------------
    def _snapshot(self) -> List[List[Optional[tuple]]]:
        with self._lock:
            return [list(spans) for spans in self._threads]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``name -> {count, total_s, self_s}`` for the timed region.

        Spans of any thread that start and end inside the root span's
        interval count; set-up work (a cache pre-population study, say)
        does not.  The lifecycle spans (``LIFECYCLE``) lie outside the
        timed region by design and are summarised over the whole rep.
        """
        import numpy as np

        n_names = len(self.names)
        root_id = self._ids.get(ROOT)
        lifecycle = np.zeros(n_names, dtype=bool)
        for name in LIFECYCLE:
            if name in self._ids:
                lifecycle[self._ids[name]] = True
        threads = []
        window = (-np.inf, np.inf)
        for spans in self._snapshot():
            if not spans:
                continue
            # Keep list positions (parents index into them); a span still
            # open when the rep ended contributes nothing.
            finished = np.array([s is not None for s in spans])
            arr = np.array(
                [s if s is not None else (0, -1, 0.0, 0.0) for s in spans],
                dtype=np.float64,
            )
            nid = arr[:, 0].astype(np.int64)
            threads.append((finished, nid, arr[:, 1].astype(np.int64), arr[:, 2], arr[:, 3]))
            if root_id is not None and (nid[finished] == root_id).any():
                at = np.flatnonzero(finished & (nid == root_id))[0]
                window = (arr[at, 2], arr[at, 3])
        count = np.zeros(n_names)
        total = np.zeros(n_names)
        self_t = np.zeros(n_names)
        for finished, nid, parent, t0, t1 in threads:
            dur = t1 - t0
            child = np.zeros(len(dur))
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            keep = finished & (
                lifecycle[nid] | ((t0 >= window[0]) & (t1 <= window[1])))
            count += np.bincount(nid[keep], minlength=n_names)
            total += np.bincount(nid[keep], weights=dur[keep], minlength=n_names)
            self_t += np.bincount(
                nid[keep], weights=(dur - child)[keep], minlength=n_names)
        return {
            name: {
                "count": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(self_t[i]),
            }
            for i, name in enumerate(self.names)
            if count[i]
        }

    def write_jsonl(self, path, run_id: str, max_lines: int = MAX_TRACE_LINES) -> None:
        """One line per span: run id, thread, index, name, start, end, parent.

        Each thread's list is written from its start, so every parent
        index written refers to a line written before it.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for tid, spans in enumerate(self._snapshot()):
                for idx, s in enumerate(spans):
                    if s is None:
                        continue
                    if written >= max_lines:
                        return
                    written += 1
                    fh.write(json.dumps({
                        "run": run_id, "thread": tid, "i": idx,
                        "name": self.names[s[0]],
                        "parent": s[1] if s[1] >= 0 else None,
                        "start": s[2], "end": s[3],
                    }) + "\n")


class NullRecorder:
    """Stand-in when tracing is off: spans cost one generator frame."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def install(recorder: Recorder) -> None:
    """Wrap every target method at class level (this process only).

    Must run before the workload constructs any runtime object, so bound
    methods cached at ``bind``/``__init__`` time already see the wrapper.
    Forked worker children inherit the wrappers; their spans die with
    them, which is why ``ml`` is measured by direct calls instead.
    """
    import importlib

    for module_name, class_name, method, span_name in TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        func = cls.__dict__[method]
        setattr(cls, method, recorder.wrap(func, span_name))
