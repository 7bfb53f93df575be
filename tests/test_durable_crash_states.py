"""Every crash state of four durable-write sequences recovers correctly.

The method is ALICE's (Pillai et al., OSDI 2014): run a workload with a
recorder in place of :data:`repro.util.durable.fs`, so every file-system
call it makes (create temp, write, fsync file, rename, fsync directory,
append) is logged; then rebuild each state a crash could leave on disk
and run the reader on it.  A crash state is every operation up to the
last fsync barrier plus each prefix of the operations after it, which
is every prefix of the log; a torn variant also cuts the last write in
half.  The checks, per state:

* every read returns the old value, the new value, or missing;
* every successful load read a file whose header digest matches its
  payload, and the reuse cache reports no unverified hit;
* journal replay yields a prefix of the run's completions, and each
  completion recorded as stored restores its exact value;
* a study whose ``state.json`` existed before the crash is found and
  re-queued by a restarted daemon.
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import checkpoint as ckpt
from repro.runtime.config import RuntimeConfig
from repro.runtime.preemption import PreemptContext
from repro.runtime.reuse import MISS, ReuseCache
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.service import protocol as proto
from repro.service.daemon import HPOService
from repro.simcluster.machines import local_machine
from repro.util import durable

CONTENT_OPS = ("create", "open", "write", "append", "rename")


class RecordingFile:
    """A file handle that logs each write before passing it on."""

    def __init__(self, fh, rel, ops, kind):
        self.fh, self.rel, self.ops, self.kind = fh, rel, ops, kind

    def write(self, data):
        written = self.fh.write(data)
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        self.ops.append((self.kind, self.rel, raw))
        return written

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Recorder(durable.OsFileSystem):
    """Performs every call for real and logs it relative to ``root``."""

    def __init__(self, root):
        self.root = Path(root)
        self.ops = []

    def _rel(self, path):
        return Path(path).relative_to(self.root).as_posix()

    def create_temp(self, target):
        fh, tmp = super().create_temp(target)
        self.ops.append(("create", self._rel(tmp)))
        return RecordingFile(fh, self._rel(tmp), self.ops, "write"), tmp

    def fsync_file(self, fh):
        super().fsync_file(fh)
        self.ops.append(("fsync", fh.rel))

    def rename(self, src, dst):
        super().rename(src, dst)
        self.ops.append(("rename", self._rel(src), self._rel(dst)))

    def fsync_dir(self, directory):
        super().fsync_dir(directory)
        self.ops.append(("fsync_dir", self._rel(directory)))

    def open_append(self, path):
        fh = super().open_append(path)
        self.ops.append(("open", self._rel(path)))
        return RecordingFile(fh, self._rel(path), self.ops, "append")


def record(monkeypatch, root, workload):
    """Run ``workload()`` under a :class:`Recorder`; its operation log."""
    recorder = Recorder(root)
    with monkeypatch.context() as patch:
        patch.setattr(durable, "fs", recorder)
        workload()
    return list(recorder.ops)


def crash_states(ops):
    """``(prefix, torn)`` for every distinct state a crash can leave.

    A barrier (fsync) changes nothing on disk, so only prefixes ending
    at a content operation (or empty) are distinct.
    """
    yield [], False
    for end, op in enumerate(ops, 1):
        if op[0] in CONTENT_OPS:
            yield ops[:end], False
        if op[0] in ("write", "append") and len(op[2]) > 1:
            yield ops[:end], True


def materialize(prefix, torn, dest):
    """Build the on-disk state ``prefix`` leaves under ``dest``."""
    dest.mkdir(parents=True)
    for i, op in enumerate(prefix):
        path = dest / op[1]
        path.parent.mkdir(parents=True, exist_ok=True)
        if op[0] in ("create", "open"):
            path.touch()
        elif op[0] in ("write", "append"):
            data = op[2]
            if torn and i == len(prefix) - 1:
                data = data[: len(data) // 2]
            with open(path, "ab") as fh:
                fh.write(data)
        elif op[0] == "rename":
            target = dest / op[2]
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
    return dest


def renamed_to(prefix, name):
    """How many renames in ``prefix`` landed on a file called ``name``."""
    return sum(1 for op in prefix if op[0] == "rename" and op[2].endswith(name))


def assert_self_verifying(path):
    """``path`` carries a digest header matching its payload."""
    header, _, payload = Path(path).read_bytes().partition(b"\n")
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    assert header == durable.ENTRY_TAG + digest, f"{path} loaded unverified"


@pytest.fixture
def verified_loads(monkeypatch):
    """Every successful entry load, checked for a matching digest."""
    loads = []
    real = durable.load_entry

    def spy(path):
        value = real(path)
        assert_self_verifying(path)
        loads.append(Path(path).name)
        return value

    monkeypatch.setattr(durable, "load_entry", spy)
    return loads


def check_every_state(ops, tmp_path, check):
    """Run ``check(state_dir, prefix)`` on every crash state; their count."""
    count = 0
    for count, (prefix, torn) in enumerate(crash_states(ops), 1):
        check(materialize(prefix, torn, tmp_path / f"state-{count}"), prefix)
    return count


def report(name, count, ops):
    print(f"{name}: {count} crash states checked over {len(ops)} operations")


# ----------------------------------------------------------------------
# A journaled, spilling run
# ----------------------------------------------------------------------
def add(a, b):
    return a + b


ADD = TaskDefinition(
    func=add, name="add", returns=int, n_returns=1,
    constraint=ResourceConstraint(cpu_units=1),
)


def test_journaled_run_crash_states(tmp_path, monkeypatch, verified_loads):
    run = tmp_path / "run"
    cfg = RuntimeConfig(
        cluster=local_machine(2), executor="simulated", execute_bodies=True,
        duration_fn=lambda t, s, a: 1.0, checkpoint_dir=str(run),
        checkpoint_every=1, journal_fsync="commit",
    )

    def workload():
        with COMPSsRuntime(cfg) as rt:
            heads = [rt.submit(ADD, (i, 10), {}) for i in range(3)]
            tail = rt.submit(ADD, (heads[0], 100), {})
            assert rt.wait_on(heads + [tail]) == [10, 11, 12, 110]

    ops = record(monkeypatch, run, workload)
    final = ckpt.RecoveryManager(run)
    completions = [
        r["key"] for r in final.records if r["rec"] == ckpt.COMPLETED
    ]
    assert len(completions) == 4
    values = {key: final.store.load_verified(key) for key in completions}
    assert sorted(values.values()) == [10, 11, 12, 110]

    def check(state, prefix):
        rm = ckpt.RecoveryManager(state)
        done = [r for r in rm.records if r["rec"] == ckpt.COMPLETED]
        assert [r["key"] for r in done] == completions[: len(done)]
        for key in values:
            restored = rm.restored_result(key)
            assert restored is ckpt._MISSING or restored == values[key]
        for record_ in done:
            # The spill is durable before its completion is journaled.
            assert record_["stored"] is True
            assert rm.restored_result(record_["key"]) == values[record_["key"]]

    count = check_every_state(ops, tmp_path, check)
    assert verified_loads, "no state restored anything"
    report("journaled run", count, ops)


# ----------------------------------------------------------------------
# A suspend spill superseded by a second spill
# ----------------------------------------------------------------------
def test_superseded_suspend_spill_crash_states(
    tmp_path, monkeypatch, verified_loads
):
    run = tmp_path / "run"
    states = [None, {"epoch": 1, "w": [0.5]}, {"epoch": 4, "w": [0.25]}]

    def workload():
        ctx = PreemptContext("trial", run / "spill")
        assert ctx.spill(states[1]) and ctx.spill(states[2])

    ops = record(monkeypatch, run, workload)

    def check(state, prefix):
        # Before either rename: nothing; a superseding spill killed
        # before its rename loads the previous spill.
        expected = states[renamed_to(prefix, "/trial.pkl")]
        assert PreemptContext("trial", state / "spill").load() == expected

    count = check_every_state(ops, tmp_path, check)
    assert verified_loads
    report("superseded suspend spill", count, ops)


# ----------------------------------------------------------------------
# A reuse-cache publish followed by a quarantine marker
# ----------------------------------------------------------------------
def test_cache_publish_then_quarantine_crash_states(
    tmp_path, monkeypatch, verified_loads
):
    run = tmp_path / "run"
    value = {"weights": list(range(50))}

    def workload():
        cache = ReuseCache(run / "cache", poison_threshold=1)
        assert cache.acquire("stage") is MISS
        assert cache.publish("stage", value)
        cache.corrupt_entry("stage")  # in-place rot: not a durable write
        assert cache.acquire("stage") is MISS
        assert cache.is_quarantined("stage")

    ops = record(monkeypatch, run, workload)
    assert renamed_to(ops, "/stage.bad") == 1

    def check(state, prefix):
        cache = ReuseCache(state / "cache", poison_threshold=1)
        quarantined = renamed_to(prefix, "/stage.bad") == 1
        published = renamed_to(prefix, "/stage.pkl") == 1
        got = cache.acquire("stage")
        if published and not quarantined:
            assert got == value
        else:
            assert got is MISS
        stats = cache.stats()
        assert stats["unverified_hits"] == 0 and stats["corrupt"] == 0
        scan = ReuseCache.scan(state / "cache")
        assert scan["entries"] == int(published) and scan["corrupt"] == 0
        assert scan["quarantined"] == int(quarantined)
        ReuseCache.gc(state / "cache")
        assert not any(
            durable.is_leftover(p) for p in (state / "cache").rglob("*")
        )

    count = check_every_state(ops, tmp_path, check)
    assert verified_loads
    report("cache publish + quarantine", count, ops)


# ----------------------------------------------------------------------
# A daemon admission (request + queued state) and a state transition
# ----------------------------------------------------------------------
def test_daemon_enqueue_and_state_crash_states(tmp_path, monkeypatch):
    run = tmp_path / "run"
    request = proto.StudyRequest(
        study_id="s1", tenant="t0", space={"lr": [0.1, 0.2]},
    )

    def workload():
        service = HPOService(run)
        service.paths.ensure_layout()
        service.generation = 1
        service._enqueue(request, detail="admitted")
        service._write_state("s1", proto.RUNNING, tenant="t0")

    ops = record(monkeypatch, run, workload)
    paths = proto.ServicePaths(run)
    final_state = proto.read_json(paths.state_file("s1"))
    assert final_state["status"] == proto.RUNNING

    def check(state, prefix):
        paths = proto.ServicePaths(state)
        written = renamed_to(prefix, "/s1/state.json")
        got = proto.read_json(paths.state_file("s1"))
        assert [None, proto.QUEUED, proto.RUNNING][written] == (
            got and got["status"]
        )
        payload = proto.read_json(paths.request_file("s1"))
        assert payload is None or request.matches(payload)
        restarted = HPOService(state)
        restarted.generation = 2
        restarted._recover_studies()
        queued = [q.request.study_id for q in restarted._queued]
        assert queued == (["s1"] if written else [])

    count = check_every_state(ops, tmp_path, check)
    report("daemon enqueue + state", count, ops)
