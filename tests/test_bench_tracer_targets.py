"""The benchmark suite's span targets exist where it looks for them.

``benchmarks/suite/tracer.py`` times layers by swapping
``cls.__dict__[method]`` for a wrapper, so every target must be a
method defined on that class itself — not inherited, not moved to a
helper.  A refactor that moves one fails here instead of breaking the
traced benchmark pass.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_suite_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module,cls,method,span", TARGETS, ids=[t[3] for t in TARGETS]
)
def test_target_is_defined_on_its_class(module, cls, method, span):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__.get(method)), (
        f"{module}.{cls} defines no {method!r} of its own (span {span})"
    )
