"""Data-version labels are pinned, not assumed: the ``d<N>v<M>`` labels,
the graph's edge labels and the order :meth:`versions_written_by` lists a
task's outputs in feed the DOT export and the lineage / integrity detail
strings, so how the access processor books its records must not move
them.

The tables below were recorded before return slots stopped getting a
data record at submit (a record is now made when something first needs
it).  One mixed submission covers every access kind: an object INOUT, a
FILE written then read, a future read IN, a future updated INOUT and a
three-return task.
"""

import pytest

from repro.pycompss_api import compss_wait_on, task
from repro.pycompss_api.parameter import FILE_IN, FILE_INOUT, FILE_OUT, INOUT
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import reset_invocation_counter
from repro.simcluster.machines import local_machine


@task(returns=int, buf=INOUT)
def fill(buf, x):
    buf.append(x)
    return len(buf)


@task(returns=3)
def split(x):
    return x, [x + 1], x + 2


@task(path=FILE_OUT)
def write(path, value):
    with open(path, "w") as f:
        f.write(str(value))


@task(returns=int, path=FILE_INOUT)
def double(path, n):
    with open(path) as f:
        v = int(f.read())
    with open(path, "w") as f:
        f.write(str(2 * v))
    return n


@task(returns=int)
def add(a, b):
    return a + b


@task(lst=INOUT)
def extend(lst, n):
    lst.append(n)


@task(returns=int, path=FILE_IN)
def total(path, buf, lst, c, s):
    with open(path) as f:
        return int(f.read()) + sum(buf) + sum(lst) + c + s


#: ``(task, versions_written_by labels)`` in submission order.
WRITTEN = [
    ("fill-1", ["d1v2", "d2v1"]),
    ("split-2", ["d3v1", "d4v1", "d5v1"]),
    ("write-3", ["d6v2"]),
    ("double-4", ["d6v3", "d7v1"]),
    ("add-5", ["d8v1"]),
    ("extend-6", ["d4v2"]),
    ("fill-7", ["d1v3", "d9v1"]),
    ("total-8", ["d10v1"]),
]

#: Every graph edge as ``(producer, consumer, label)``, producer order.
EDGES = [
    ("fill-1", "double-4", "d2v1"),
    ("fill-1", "fill-7", "d1v2"),
    ("split-2", "add-5", "d3v1"),
    ("split-2", "extend-6", "d4v1"),
    ("split-2", "total-8", "d5v1"),
    ("write-3", "double-4", "d6v2"),
    ("double-4", "add-5", "d7v1"),
    ("double-4", "total-8", "d6v3"),
    ("add-5", "total-8", "d8v1"),
    ("extend-6", "total-8", "d4v2"),
    ("fill-7", "total-8", "d1v3"),
]


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


def test_mixed_submission_labels(tmp_path):
    cfg = RuntimeConfig(
        cluster=local_machine(4),
        executor="simulated",
        execute_bodies=True,
        graph=True,
        duration_fn=lambda t, spec, alloc: 1.0,
    )
    path = str(tmp_path / "value.txt")
    with COMPSsRuntime(cfg) as rt:
        buf = []
        n = fill(buf, 5)
        a, lst, c = split(10)
        write(path, 3)
        k = double(path, n)
        s = add(a, k)
        extend(lst, 7)
        fill(buf, 1)
        out = total(path, buf, lst, c, s)
        tasks = sorted(rt.graph._tasks.values(), key=lambda t: t.task_id)
        written = [
            (t.label, [v.label for v in rt.access.versions_written_by(t)])
            for t in tasks
        ]
        edges = [(p.label, q.label, label) for p, q, label in rt.graph.edges()]
        assert compss_wait_on(out) == 6 + 6 + 18 + 12 + 11
    assert written == WRITTEN
    assert edges == EDGES
