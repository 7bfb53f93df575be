"""Every rename and fsync in ``src/repro`` goes through one module.

``repro.util.durable`` owns the durability rule (fsync'd temp, rename,
directory fsync; self-verifying entries).  A second module that renames
or fsyncs on its own is a second rule, so this scan fails on any call
to ``os.replace``, ``os.rename`` or ``os.fsync`` outside that module.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
OWNER = PACKAGE / "util" / "durable.py"
FORBIDDEN = {"replace", "rename", "fsync"}


def os_calls(tree):
    """``(line, name)`` of each ``os.<name>(...)`` call in ``FORBIDDEN``,
    also through ``from os import <name>``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in FORBIDDEN:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in FORBIDDEN
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            yield node.lineno, func.attr
        elif isinstance(func, ast.Name) and func.id in aliases:
            yield node.lineno, aliases[func.id]


def test_only_the_durable_module_renames_or_fsyncs():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == OWNER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.relative_to(PACKAGE)}:{line}: os.{name}"
            for line, name in os_calls(tree)
        ]
    assert offenders == []


def test_the_scan_sees_the_owner_calls():
    tree = ast.parse(OWNER.read_text(encoding="utf-8"))
    assert {name for _, name in os_calls(tree)} == {"replace", "fsync"}


def test_the_scan_catches_an_imported_alias():
    tree = ast.parse("from os import replace as mv\nmv('a', 'b')\n")
    assert list(os_calls(tree)) == [(2, "replace")]
