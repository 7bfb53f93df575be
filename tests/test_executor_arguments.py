"""``Executor.resolve_arguments``: pass-through by identity, and no
cyclic garbage per executed task (``manage_gc`` freezes the heap for the
whole session, so a cycle per task would be pinned until ``stop()``)."""

import gc

from repro.pycompss_api import compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import base
from repro.runtime.executor.base import Executor
from repro.runtime.future import Future
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition, TaskInvocation
from repro.simcluster.machines import local_machine

DEFN = TaskDefinition(func=lambda *a, **k: None, name="t")


def spy_resolve(monkeypatch):
    """Record every top-level value the general path resolves."""
    seen = []
    resolve = base._resolve

    def spy(v):
        seen.append(v)
        return resolve(v)

    monkeypatch.setattr(base, "_resolve", spy)
    return seen


def done_future(value):
    fut = Future(TaskInvocation(definition=DEFN))
    fut.set_result(value)
    return fut


class TestResolveArguments:
    def test_no_future_returns_the_very_args_and_kwargs(self):
        inout = [1, 2]
        t = TaskInvocation(
            definition=DEFN,
            args=(1, "a", inout, {"k": (3, 4)}),
            kwargs={"lr": 0.1, "cfg": {"layers": [8, 4]}},
        )
        args, kwargs = Executor.resolve_arguments(t)
        assert args is t.args
        assert kwargs is t.kwargs

    def test_rebuilds_only_the_containers_that_hold_a_future(self):
        plain, nested_plain = [1, 2], {"k": [3]}
        holder = [done_future("x"), plain]
        t = TaskInvocation(
            definition=DEFN,
            args=(done_future(7), plain, holder, (done_future(1), {2})),
            kwargs={"a": nested_plain, "b": {"f": done_future(None)}},
        )
        args, kwargs = Executor.resolve_arguments(t)
        assert args == (7, [1, 2], ["x", [1, 2]], (1, {2}))
        assert args[1] is plain  # INOUT mutations must reach the caller
        assert args[2] is not holder and args[2][1] is plain
        assert kwargs == {"a": {"k": [3]}, "b": {"f": None}}
        assert kwargs["a"] is nested_plain
        assert t.args[0].__class__ is Future  # the invocation is untouched

    def test_dep_free_call_returns_the_very_args_and_kwargs(self, monkeypatch):
        # Early exit: no kwargs and only exact int/float/complex/bool/None
        # positionals — nothing is scanned.
        scanned = spy_resolve(monkeypatch)
        t = TaskInvocation(definition=DEFN, args=(1, 2.5, 3j, True, None))
        args, kwargs = Executor.resolve_arguments(t)
        assert args is t.args and kwargs is t.kwargs
        assert scanned == []

    def test_str_or_object_argument_takes_the_general_path(self, monkeypatch):
        scanned = spy_resolve(monkeypatch)
        inout = [1, 2]
        for call_args in (("a",), (1, object()), (inout,)):
            t = TaskInvocation(definition=DEFN, args=call_args)
            args, kwargs = Executor.resolve_arguments(t)
            assert args is t.args and kwargs is t.kwargs
        assert args[0] is inout  # INOUT mutations reach the caller's list
        assert len(scanned) == 6  # args and kwargs, per call

    def test_futures_nested_behind_scalars_are_resolved(self):
        # No kwargs: the early exit's scan must stop at the container.
        for call_args, want in (
            ((1, [done_future(2)]), (1, [2])),
            ((1, (done_future(2), 3)), (1, (2, 3))),
            ((1, {"k": done_future(2)}), (1, {"k": 2})),
        ):
            t = TaskInvocation(definition=DEFN, args=call_args)
            assert Executor.resolve_arguments(t) == (want, {})

    def test_future_only_in_kwargs_keeps_args(self):
        t = TaskInvocation(
            definition=DEFN, args=(1, [2]), kwargs={"x": done_future(5)}
        )
        args, kwargs = Executor.resolve_arguments(t)
        assert args is t.args
        assert kwargs == {"x": 5} and kwargs is not t.kwargs


@task(returns=int)
def tiny(x):
    return x + 1


@task(returns=int)
def add(a, b):
    return a + b


def test_executed_tasks_leave_no_cyclic_garbage(tmp_path):
    cfg = RuntimeConfig(
        cluster=local_machine(4),
        executor="simulated",
        execute_bodies=True,
        stream_completed=True,
        graph=False,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=None,
        journal_fsync="off",
        duration_fn=lambda t, spec, alloc: 1.0,
    )
    n = 1000
    gc.collect()
    gc.disable()
    try:
        with COMPSsRuntime(cfg):
            got = compss_wait_on([add(tiny(x), 1) for x in range(n)])
        assert got == [x + 2 for x in range(n)]
        del got
        # stop() has unfrozen the heap: whatever cycles the 2 000 tasks
        # made are collectable now, and reference counting freed the rest.
        assert gc.collect() < 100
    finally:
        gc.enable()
