"""Every executor times its attempts through one primitive.

``Executor._at`` is the only timing method an executor implements; the
straggler checks, the starvation deadline and ``_after`` are written
once, on ``Executor``, against ``_at`` and ``clock()``.  A second
definition of one of them is a second timing rule, and so is a
``threading.Timer`` anywhere but ``LocalExecutor._at``.
"""

import ast
from pathlib import Path

import repro

RUNTIME = Path(repro.__file__).parent / "runtime"
SHARED = {
    "_after",
    "_spec_check",
    "_schedule_spec_check",
    "_schedule_spec_checks_for_name",
    "_arm_starvation_watchdog",
    "_reap_starved",
}


def methods(tree):
    """``(class, method)`` for every method defined in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name


def timer_uses(tree):
    """``(class, function)`` enclosing each ``threading.Timer(...)`` call,
    also through ``from threading import Timer``."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threading"
        for alias in node.names
        if alias.name == "Timer"
    }

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "Timer"
                and isinstance(f.value, ast.Name)
                and f.value.id == "threading"
            ) or (isinstance(f, ast.Name) and f.id in aliases):
                yield cls, func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls, func)

    yield from visit(tree, None, None)


def scan(collect):
    found = []
    for path in sorted(RUNTIME.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.relative_to(RUNTIME).as_posix(),) + hit for hit in collect(tree)]
    return found


def test_lifecycle_timers_are_defined_once_on_executor():
    defined = [hit for hit in scan(methods) if hit[2] in SHARED]
    assert sorted(defined) == sorted(
        ("executor/base.py", "Executor", name) for name in SHARED
    )


def test_only_the_local_at_starts_a_thread_timer():
    assert scan(timer_uses) == [("executor/local.py", "LocalExecutor", "_at")]


def test_the_scan_catches_an_imported_alias():
    tree = ast.parse(
        "from threading import Timer as T\n"
        "class X:\n"
        "    def wait(self):\n"
        "        T(1.0, print).start()\n"
    )
    assert list(timer_uses(tree)) == [("X", "wait")]
