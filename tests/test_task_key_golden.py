"""Task keys are pinned, not assumed: journals written by earlier commits
must stay resumable, so every key below was recorded at the commit
before the keyer fast path (0d4de2e) and may never change.

Also pins the two journal formats against each other: a hand-written
journal in the old three-records-per-task layout resumes exactly-once,
and a journal written by the current code has one record per task.
"""

import enum
import json

import numpy as np
import pytest

from repro.pycompss_api import compss_wait_on, task
from repro.runtime import checkpoint as ckpt
from repro.runtime.checkpoint import (
    CheckpointStore,
    RecoveryManager,
    TaskKeyer,
    WriteAheadJournal,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.future import Future
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition, TaskInvocation
from repro.simcluster.machines import local_machine


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 3


class Point:
    def __init__(self, x, y):
        self.x, self.y = x, y

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def _stage(*args, **kwargs):
    return 0


# The content key digests the function's qualified name; pin it so the
# table does not depend on how pytest imports this file.
_stage.__module__ = "golden"
_stage.__qualname__ = "stage"

STAGE = TaskDefinition(func=_stage, name="stage", n_returns=2, cacheable=True)
PLAIN = TaskDefinition(func=_stage, name="experiment")


def inv(definition, *args, **kwargs):
    return TaskInvocation(definition=definition, args=args, kwargs=kwargs)


def build_cases():
    """``[(case, key_for, content_key_for)]`` — fresh keyer per case
    unless the case is about occurrence counting."""
    rows = []

    def one(case, definition, *args, keyer=None, **kwargs):
        keyer = keyer or TaskKeyer()
        t = inv(definition, *args, **kwargs)
        rows.append((case, keyer.key_for(t), TaskKeyer().content_key_for(t)))
        return t

    one("int", STAGE, 7)
    one("negative int", STAGE, -3)
    one("big int", STAGE, 2 ** 70)
    one("float", STAGE, 0.1)
    one("negative zero", STAGE, -0.0)
    one("float exponent", STAGE, 1e300)
    one("inf and nan", STAGE, float("inf"), float("nan"))
    one("complex", STAGE, 1 + 2j)
    one("np.float64", STAGE, np.float64(0.1))
    one("np.int64", STAGE, np.int64(5))
    one("bool", STAGE, True, False)
    one("none", STAGE, None)
    one("str", STAGE, "héllo\n'\"")
    one("lone surrogate", STAGE, "\ud800x")
    one("bytes", STAGE, b"\x00\xffab")
    one("int enum", STAGE, Colour.BLUE)
    one("int vs bool vs float", STAGE, 1, True, 1.0)
    one("no arguments", STAGE)
    one("nested containers", STAGE,
        [1, (2, 3), {"k": {4, 5}}, {"a": [None, 1.5], 2: "b"}],
        frozenset({"x", "y"}))
    one("empty containers", STAGE, [], (), {}, set())
    one("kwargs order xy", STAGE, 0, x=1, y="b")
    one("kwargs order yx", STAGE, 0, y="b", x=1)
    one("container kwarg", STAGE, cfg={"lr": 0.01, "layers": [32, 16]})
    one("namespaced", STAGE, 7, keyer=TaskKeyer("study-a"))
    one("object with a stable repr", STAGE, Point(1, 2))
    one("non-cacheable definition", PLAIN, {"lr": 0.1})

    keyer = TaskKeyer()
    for i in range(3):
        one(f"occurrence {i}", STAGE, 7, "same", keyer=keyer)
    one("other arguments, same keyer", STAGE, 8, "same", keyer=keyer)
    one("other definition, same keyer", PLAIN, 7, "same", keyer=keyer)

    keyer = TaskKeyer("tenant/1")
    producer = one("producer", STAGE, 1, keyer=keyer)
    one("future slot 0", STAGE, Future(producer, 0), 2, keyer=keyer)
    one("future slot 1 in a list", STAGE, [Future(producer, 1), 3],
        keyer=keyer)
    plain = one("non-cacheable producer", PLAIN, 1, keyer=keyer)
    one("future of a non-cacheable producer", STAGE, Future(plain, 0),
        keyer=keyer)
    return rows


GOLDEN = {
    "int": ("9271fcd93660ad4b", "7e21d57a09404010"),
    "negative int": ("47580bd2eb973619", "a6083d1f08ba7880"),
    "big int": ("eeac4296725a6d20", "90518dcdc8a6607a"),
    "float": ("5b926f775096815b", "010b200fe614038d"),
    "negative zero": ("d9a67a3a80bcb6a7", "988709eab5ba1040"),
    "float exponent": ("3490e4769c2fccab", "3c8729331b05afd2"),
    "inf and nan": ("5a1fd43fa098edce", "bd299a159b1b9a59"),
    "complex": ("eb47916fb5d31f62", "f4443597b22b28a4"),
    "np.float64": ("952a6818ee06eef9", "69ac834e1eeb478a"),
    "np.int64": ("fc0863f113186e0d", None),
    "bool": ("4dae03c4c15d182b", "69671bdd9ce41efc"),
    "none": ("40575384020b15be", "bfdfc9f796f6691e"),
    "str": ("43ef14d9a2877482", "9d5552dfc561ad17"),
    "lone surrogate": ("5c0c2e2a3aa6393b", "f558bad1a44e4430"),
    "bytes": ("a73658ab9b236ef9", "3756c51bb4d23887"),
    "int enum": ("28957feefb17e586", "f626f0fc07c72455"),
    "int vs bool vs float": ("c3148684764c79f9", "46e2488184dc320b"),
    "no arguments": ("fe29a3a2d99d8a4e", "1d0978b953f4b215"),
    "nested containers": ("c81491c358b49608", "9f5d0d05a51409e4"),
    "empty containers": ("80824d7ebb32240f", "f80b687f28899957"),
    "kwargs order xy": ("37d0119fa9447b80", "c9a1d0eb8f533de0"),
    "kwargs order yx": ("37d0119fa9447b80", "c9a1d0eb8f533de0"),
    "container kwarg": ("cefb47e427f64eac", "932e1fa21f0fc43d"),
    "namespaced": ("199d95f5c0f18db8", "7e21d57a09404010"),
    "object with a stable repr": ("f3be4cbb6a9bae54", None),
    "non-cacheable definition": ("9bd3c401c05c5f09", None),
    "occurrence 0": ("99221f5d0680e081", "d0bc7e739979af77"),
    "occurrence 1": ("b89d7b90d238852c", "d0bc7e739979af77"),
    "occurrence 2": ("8b3472bdb8e1e1a8", "d0bc7e739979af77"),
    "other arguments, same keyer": ("205d530193aff0f9", "e2a76e25822b33c6"),
    "other definition, same keyer": ("56ced8e14b0aa5f1", None),
    "producer": ("8c668195268ba6a8", "7d7b22e6770b4599"),
    "future slot 0": ("d78fac791ef3b0ef", "ef79bc7856d23127"),
    "future slot 1 in a list": ("c13145f023fdfb9d", "9520a0db92283331"),
    "non-cacheable producer": ("af815f87361269a5", None),
    "future of a non-cacheable producer": ("d9ec4b7cc26e8e42", None),
}


def test_table_covers_every_case():
    assert [case for case, _, _ in build_cases()] == list(GOLDEN)


@pytest.mark.parametrize("row", build_cases(), ids=lambda row: row[0])
def test_keys_are_byte_identical_to_the_recorded_ones(row):
    case, key, content = row
    if case.startswith("np.") and repr(np.float64(0.1)) != "np.float64(0.1)":
        pytest.skip("recorded under numpy 2's scalar repr")
    assert (key, content) == GOLDEN[case]


def test_kwargs_order_and_occurrences():
    assert GOLDEN["kwargs order xy"] == GOLDEN["kwargs order yx"]
    keys = {GOLDEN[f"occurrence {i}"][0] for i in range(3)}
    contents = {GOLDEN[f"occurrence {i}"][1] for i in range(3)}
    assert len(keys) == 3 and len(contents) == 1


# ----------------------------------------------------------------------
# Journal formats
# ----------------------------------------------------------------------
@task(returns=int)
def bump(x):
    EXECUTED.append(x)
    return x + 1


EXECUTED = []


def _run(ckpt_dir, n, resume=False):
    EXECUTED.clear()
    config = RuntimeConfig(
        cluster=local_machine(4),
        executor="simulated",
        execute_bodies=True,
        checkpoint_dir=str(ckpt_dir),
        duration_fn=lambda t, spec, alloc: 1.0,
    )
    with COMPSsRuntime(
        config, resume_from=str(ckpt_dir) if resume else None
    ) as rt:
        got = compss_wait_on([bump(x) for x in range(n)])
        restored = rt.sessions.solo.recovery.restored if resume else 0
    assert got == [x + 1 for x in range(n)]
    return restored


def _legacy_journal(ckpt_dir, n_total, n_completed):
    """The parent commit's layout, written as text: ``submitted`` and
    ``started`` before every ``completed``, and a started-only tail."""
    keyer = TaskKeyer()
    keys = [keyer.key_for(inv(bump.definition, x)) for x in range(n_total)]
    store = CheckpointStore(ckpt_dir / ckpt.OUTPUTS_DIR)
    lines = ['{"key": "", "pid": 4242, "rec": "session", "seq": 1}']
    seq = 1
    for x, key in enumerate(keys):
        seq += 1
        lines.append(
            '{"key": "%s", "rec": "submitted", "seq": %d, "task": "bump-%d"}'
            % (key, seq, x + 1))
    for x, key in enumerate(keys):
        seq += 1
        lines.append(
            '{"key": "%s", "node": "localhost", "rec": "started", '
            '"seq": %d, "task": "bump-%d"}' % (key, seq, x + 1))
        if x < n_completed:
            seq += 1
            store.save(key, x + 1)
            lines.append(
                '{"key": "%s", "node": "localhost", "rec": "completed", '
                '"seq": %d, "stored": true, "task": "bump-%d"}'
                % (key, seq, x + 1))
    (ckpt_dir / ckpt.JOURNAL_FILE).write_text("\n".join(lines) + "\n")
    return keys


def test_three_record_journal_resumes_exactly_once(tmp_path):
    n, done = 12, 7
    keys = _legacy_journal(tmp_path, n, done)
    before = RecoveryManager(tmp_path)
    assert before.summary()["completed"] == done
    assert sorted(before.frontier()) == sorted(keys[done:])

    restored = _run(tmp_path, n, resume=True)
    assert restored == done
    assert sorted(EXECUTED) == list(range(done, n))  # zero re-executions

    after = RecoveryManager(tmp_path)
    assert after.sessions == 2
    assert after.completed_keys == set(keys) and after.frontier() == []
    executed = [
        r["key"] for r in after.records
        if r["rec"] == ckpt.COMPLETED and not r.get("restored")
    ]
    assert sorted(executed) == sorted(keys)  # each key executed once, ever


def test_new_journal_has_one_record_per_task(tmp_path):
    n = 20
    _run(tmp_path, n)
    summary = RecoveryManager(tmp_path).summary()
    assert summary["completed"] == n
    assert summary["records"] == n + 1
    assert summary["record_kinds"] == {"session": 1, "completed": n}
    assert summary["tasks_seen"] == n and summary["frontier"] == 0
    assert summary["restorable"] == n

    # ... and resumes with nothing left to run.
    assert _run(tmp_path, n, resume=True) == n
    assert EXECUTED == []


def test_hand_built_commit_line_is_what_json_dumps_writes(tmp_path):
    path = tmp_path / "j.jsonl"
    j = WriteAheadJournal(path, fsync="off")
    awkward = 'nøde "1"\\\n\t\x00\ud800'
    j.append(ckpt.COMPLETED, "kéy", task=awkward, node=awkward, stored=True)
    j.append(ckpt.COMPLETED, "k2", task="t-2", node="", stored=False)
    j.append(ckpt.COMPLETED, "k3", task="t-3", node="n", stored=1)  # not a bool
    j.append(ckpt.FAILED, "k4", task="t-4", node="n")
    j.close()
    lines = path.read_text().splitlines()
    records, truncated = WriteAheadJournal.replay(path)
    assert not truncated and len(records) == 4
    assert lines == [json.dumps(r, sort_keys=True) for r in records]
    assert records[0] == {
        "rec": "completed", "key": "kéy", "seq": 1,
        "task": awkward, "node": awkward, "stored": True,
    }
    assert records[2]["stored"] == 1 and records[2]["stored"] is not True
