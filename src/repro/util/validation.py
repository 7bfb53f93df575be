"""Small argument-validation helpers with uniform error messages.

Used at public API boundaries (runtime configuration, search spaces, layer
constructors) so invalid user input fails fast with a clear message instead
of surfacing as a numpy broadcasting error three layers down.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, Type, Union

Number = Union[int, float]


def check_type(name: str, value: Any, types: Union[Type, Sequence[Type]]) -> Any:
    """Raise :class:`TypeError` unless ``value`` is an instance of ``types``."""
    if not isinstance(types, (tuple, list)):
        types = (types,)
    if not isinstance(value, tuple(types)):
        expected = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def check_positive(name: str, value: Number) -> Number:
    """Raise :class:`ValueError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Raise :class:`ValueError` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_at_least(name: str, value: Number, low: Number) -> Number:
    """Raise :class:`ValueError` unless ``value >= low``."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_in_range(
    name: str, value: Number, low: Number, high: Number, inclusive: bool = True
) -> Number:
    """Raise :class:`ValueError` unless ``low <= value <= high``.

    With ``inclusive=False`` the bounds are exclusive.
    """
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{low}, {high}{bracket[1]}, got {value!r}"
        )
    return value


def check_one_of(name: str, value: Any, options: Iterable[Any]) -> Any:
    """Raise :class:`ValueError` unless ``value`` is one of ``options``."""
    options = list(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value


def check_fraction(name: str, value: Number) -> Number:
    """Raise :class:`ValueError` unless ``0 < value <= 1``."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0.0, 1.0], got {value!r}")
    return value


def one_of(*options: Any) -> Callable[[str, Any], Any]:
    """A :func:`check_one_of` check; its ``choices`` attribute lists them."""
    def check(name: str, value: Any) -> Any:
        return check_one_of(name, value, options)

    check.choices = list(options)  # type: ignore[attr-defined]
    return check
