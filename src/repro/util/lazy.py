"""PEP 562 package surfaces that import a submodule on first use.

A package ``__init__`` lists which submodule defines each public name::

    __getattr__, __dir__ = lazy_surface(__name__, {
        "space": ("SearchSpace", "Categorical"),
        "runner": ("PyCOMPSsRunner",),
    })

so ``from repro.hpo import SearchSpace`` imports ``repro.hpo.space`` and
nothing else.  A resolved name is stored in the package namespace, so
later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_surface(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` from ``{submodule: names}``."""
    where = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = where.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
            setattr(sys.modules[package], name, value)
            return value
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
