"""Knobs are declared once (``repro.util.knobs``); these checks hold the
declarations to the command line, the repository and the docs.

- The golden below lists every option of ``repro run``, ``serve`` and
  ``submit`` with its default and choice list, as ``--help`` offers them.
  A deliberate surface change edits it in the same commit.
- Every declared flag, given a non-default value, reaches its field.
- No knob is set to one value only across the repository unless its
  declaration says why.
- The knob tables in EXPERIMENTS.md state the declared defaults.
"""

import argparse
import ast
import dataclasses
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.cli import build_parser, knob_values
from repro.runtime.config import RuntimeConfig
from repro.service import AdmissionConfig, StudyRequest
from repro.util.knobs import check_knob, knob_fields

REPO = Path(__file__).resolve().parents[1]
CLASSES = (RuntimeConfig, AdmissionConfig, StudyRequest)

ALGORITHMS = [
    "grid", "random", "bayesian", "tpe", "hyperband", "successive_halving",
    "evolutionary", "asha",
]
CLUSTERS = ["local", "minotauro", "mn4", "power9"]
EXECUTORS = ["local", "simulated"]
BACKENDS = ["threads", "workers"]
SCHEDULERS = ["fifo", "priority", "locality", "lpt"]

# option -> (default, choices); positionals are keyed by their dest.
GOLDEN = {
    "run": {
        "config": (None, None),
        "--cluster": ("local", CLUSTERS),
        "--nodes": (1, None),
        "--executor": ("local", EXECUTORS),
        "--backend": ("threads", BACKENDS),
        "--task-timeout": (None, None),
        "--max-tasks-per-worker": (None, None),
        "--poison-threshold": (3, None),
        "--scheduler": ("fifo", SCHEDULERS),
        "--algorithm": ("grid", ALGORITHMS),
        "--n-trials": (20, None),
        "--seed": (0, None),
        "--cores-per-task": (1, None),
        "--gpus-per-task": (0, None),
        "--reserved-cores": (0, None),
        "--target-accuracy": (None, None),
        "--mock-objective": (False, None),
        "--no-tracing": (False, None),
        "--no-graph": (False, None),
        "--out-dir": (None, None),
        "--checkpoint-dir": (None, None),
        "--checkpoint-every": (1, None),
        "--resume-from": (None, None),
        "--reuse-cache": (False, None),
        "--cache-dir": (None, None),
        "--cache-max-bytes": (None, None),
        "--stage-epochs": (None, None),
        "--verify-outputs": (False, None),
        "--replication-factor": (1, None),
        "--transfer-retries": (2, None),
        "--drain-deadline": (120.0, None),
        "--starvation-timeout": (300.0, None),
        "--preempt-checkpoint-epochs": (1, None),
        "--suspend-grace": (30.0, None),
        "--max-suspended-trials": (64, None),
        "--verbose": (False, None),
    },
    "serve": {
        "root": (None, None),
        "--cluster": ("local", CLUSTERS),
        "--nodes": (1, None),
        "--executor": ("local", EXECUTORS),
        "--backend": ("threads", BACKENDS),
        "--scheduler": ("fifo", SCHEDULERS),
        "--max-queued-studies": (16, None),
        "--max-queued-per-tenant": (8, None),
        "--max-studies-per-tenant": (2, None),
        "--max-concurrent-studies": (4, None),
        "--rss-limit-mb": (None, None),
        "--reuse-cache": (False, None),
        "--cache-max-bytes": (None, None),
        "--drain-deadline": (30.0, None),
        "--heartbeat": (1.0, None),
        "--once": (False, None),
        "--max-wait": (None, None),
        "--verbose": (False, None),
    },
    "submit": {
        "root": (None, None),
        "study_id": (None, None),
        "config": (None, None),
        "--tenant": ("default", None),
        "--algorithm": ("grid", ALGORITHMS),
        "--n-trials": (20, None),
        "--seed": (0, None),
        "--objective": ("fast_mock", None),
        "--priority": (0, None),
        "--weight": (1.0, None),
        "--batch-size": (None, None),
        "--max-trial-retries": (0, None),
        "--max-failed-trials": (None, None),
        "--max-tenant-slots": (None, None),
        "--stage-epochs": (None, None),
        "--timeout": (30.0, None),
        "--no-wait": (False, None),
    },
}


def subparsers():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def surface(subparser):
    rows = {}
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        default = action.default
        if isinstance(default, Path):
            default = str(default)
        choices = None if action.choices is None else list(action.choices)
        rows[" ".join(action.option_strings) or action.dest] = (
            default, choices,
        )
    return rows


def test_cli_surface_matches_golden():
    parsers = subparsers()
    for command, golden in GOLDEN.items():
        assert surface(parsers[command]) == golden, command


# ----------------------------------------------------------------------
# Each flag reaches its field
# ----------------------------------------------------------------------
#: Flag values pinned by hand; every other flag gets a generated one.
PINNED = {
    "--backend": ("workers", "workers"),
    "--max-tasks-per-worker": ("10", 10),
    "--poison-threshold": ("4", 4),
    "--task-timeout": ("60", 60.0),
}


def _sample(field):
    """A valid non-default command-line value and the field value it gives."""
    if field.knob.flag in PINNED:
        return PINNED[field.knob.flag]
    if field.knob.choices is not None:
        choice = next(c for c in field.knob.choices if c != field.default)
        return choice, choice
    if field.type is str:
        return "elsewhere", "elsewhere"
    value = field.type(2 * (field.default or 1) + 1)
    return str(value), value


def _flag_cases():
    parsers = subparsers()
    for command in GOLDEN:
        options = parsers[command]._option_string_actions
        for cls in CLASSES:
            for field in knob_fields(cls):
                action = options.get(field.knob.flag)
                # A switch keeps its flag's dest; a value flag the field's.
                if action is not None and (
                    field.type is bool or action.dest == field.name
                ):
                    yield pytest.param(
                        command, cls, field,
                        id=f"{command} {field.knob.flag}",
                    )


def _parse(command, *flags):
    positionals = {
        "run": ["c.json"], "serve": ["root"], "submit": ["root", "s", "c.json"],
    }[command]
    return build_parser().parse_args([command, *positionals, *flags])


def _build(cls, args):
    required = {"study_id": "s"} if cls is StudyRequest else {}
    return cls(**required, **knob_values(args, cls))


@pytest.mark.parametrize("command, cls, field", _flag_cases())
def test_flag_reaches_its_field(command, cls, field):
    if field.type is bool:
        args, expected = _parse(command, field.knob.flag), not field.default
    else:
        text, expected = _sample(field)
        assert expected != field.default
        args = _parse(command, field.knob.flag, text)
    assert getattr(_build(cls, args), field.name) == expected


@pytest.mark.parametrize(
    "field",
    [f for f in knob_fields(RuntimeConfig) if f.knob.off is not None],
    ids=lambda f: f.knob.flag,
)
def test_off_value_clears_the_knob(field):
    args = _parse("run", field.knob.flag, str(field.knob.off))
    assert getattr(_build(RuntimeConfig, args), field.name) is None


# ----------------------------------------------------------------------
# No knob with a single value
# ----------------------------------------------------------------------
def _set_values():
    """Every expression a name or flag is set to in the repository.

    Keyword arguments, dict keys, attribute assignments, and the element
    after a ``--flag`` string in a list or tuple (an argv).
    """
    found = defaultdict(list)
    for root in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name == Path(__file__).name:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.keyword) and node.arg:
                    found[node.arg].append(node.value)
                elif isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        if isinstance(key, ast.Constant):
                            found[key.value].append(value)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute):
                            found[target.attr].append(node.value)
                elif isinstance(node, (ast.List, ast.Tuple)):
                    for flag, value in zip(node.elts, node.elts[1:] + [None]):
                        if isinstance(flag, ast.Constant) and \
                                str(flag.value).startswith("--"):
                            found[flag.value].append(value)
    return found


def _other_value(cls, field, node):
    """Whether ``node`` may set ``field`` to a valid non-default value."""
    if node is None:  # a switch at the end of an argv
        return True
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return True  # computed: not provably the default
    if isinstance(value, str) and field.type in (int, float):
        try:  # an argv string
            value = field.type(value)
        except ValueError:
            return False
    if value == field.default:
        return False
    try:
        check_knob(cls, field, value)
    except (TypeError, ValueError):
        return False  # an invalid value a validation test passes
    return True


def test_every_knob_takes_more_than_one_value():
    found = _set_values()
    single = []
    for cls in CLASSES:
        fields = {f.name: f for f in dataclasses.fields(cls)}
        assert [f.name for f in knob_fields(cls)] == list(fields)
        for field in knob_fields(cls):
            required = fields[field.name].default_factory is \
                dataclasses.MISSING and field.default is dataclasses.MISSING
            if required or field.knob.why:
                continue
            nodes = found[field.name] + (
                found[field.knob.flag] if field.knob.flag else []
            )
            if field.type is bool and field.knob.flag in found:
                continue
            if not any(_other_value(cls, field, n) for n in nodes):
                single.append(f"{cls.__name__}.{field.name}")
    assert not single, (
        f"only ever set to their default across src/, tests/, examples/ "
        f"and benchmarks/: {single}; make each a constant, or say why it "
        "stays a knob in its declaration (knob(why=...))"
    )


# ----------------------------------------------------------------------
# EXPERIMENTS.md knob tables
# ----------------------------------------------------------------------
def _doc_value(text):
    text = text.strip().strip("`")
    if text in ("off", "None"):
        return None
    return ast.literal_eval(text)


def _doc_rows():
    """(name, stated default) of every row of a ``| knob | ... |`` table."""
    default_col = None
    for line in (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            default_col = None
        elif cells[0].lower() == "knob":
            default_col = [c.lower() for c in cells].index("default")
        elif default_col is not None and cells[0].startswith("`"):
            names = cells[0].split(" / ")
            defaults = cells[default_col].split(" / ")
            for name, default in zip(names, defaults):
                match = re.match(r"`(\w+)`", name)
                if match:
                    yield match.group(1), default


def test_experiments_tables_state_the_declared_defaults():
    declared = defaultdict(dict)
    for cls in CLASSES:
        for field in knob_fields(cls):
            declared[field.name][cls.__name__] = field.default
    checked, wrong = 0, []
    for name, stated in _doc_rows():
        for owner, default in declared.get(name, {}).items():
            checked += 1
            if _doc_value(stated) != default:
                wrong.append(f"{name}: {stated} (declared on {owner}: {default!r})")
    assert checked >= 30
    assert not wrong, wrong
