"""Config fields declared once: default, range check, choices and flag.

:func:`knob` returns a :func:`dataclasses.field` whose metadata carries
the field's check (run by :func:`validate`; ``None`` passes exactly where
the annotation is ``Optional[...]``), its choices and, when the command
line exposes it, its flag, help text and the flag value meaning "off"
(``None``).  ``repro.cli`` derives its flags from these declarations;
this module imports no argparse, so importing a config stays cheap.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple

Check = Callable[[str, Any], Any]

KNOB = "repro.knob"


class Knob(NamedTuple):
    """What a :func:`knob` declaration records besides the default."""

    check: Optional[Check]
    choices: Optional[Sequence[Any]]
    flag: Optional[str]
    help: Optional[str]
    off: Any  # the flag value that sets the field to None
    why: Optional[str]  # why a knob set to one value only stays settable


class KnobField(NamedTuple):
    """A declared field of one dataclass, with its resolved annotation."""

    name: str
    default: Any
    knob: Knob
    type: type  # the annotation's first non-None member
    optional: bool


def knob(
    default: Any = dataclasses.MISSING,
    check: Optional[Check] = None,
    *,
    factory: Any = dataclasses.MISSING,
    choices: Optional[Sequence[Any]] = None,
    flag: Optional[str] = None,
    help: Optional[str] = None,
    off: Any = None,
    why: Optional[str] = None,
) -> Any:
    """Declare a dataclass field; ``choices`` defaults to the check's."""
    spec = Knob(
        check, choices or getattr(check, "choices", None), flag, help, off, why
    )
    return dataclasses.field(
        default=default, default_factory=factory, metadata={KNOB: spec}
    )


@functools.lru_cache(maxsize=None)
def knob_fields(cls: type) -> Tuple[KnobField, ...]:
    """Every field of ``cls`` declared with :func:`knob`, in order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if KNOB not in f.metadata:
            continue
        hint = hints[f.name]
        members = (
            typing.get_args(hint)
            if typing.get_origin(hint) is typing.Union else (hint,)
        )
        base = next(m for m in members if m is not type(None))
        out.append(KnobField(
            f.name, f.default, f.metadata[KNOB], base, type(None) in members
        ))
    return tuple(out)


def check_knob(cls: type, field: KnobField, value: Any) -> Any:
    """Run one knob's check.

    The message names the knob ``Class.field``, so an error raised deep
    inside a service daemon still tells the operator which field to fix.
    """
    if field.knob.check is not None and not (value is None and field.optional):
        field.knob.check(f"{cls.__name__}.{field.name}", value)
    return value


def validate(obj: Any) -> None:
    """Run the declared check of every knob of a dataclass instance."""
    for field in knob_fields(type(obj)):
        check_knob(type(obj), field, getattr(obj, field.name))
