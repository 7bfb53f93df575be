"""Shared utilities for the reproduction package.

This subpackage holds small, dependency-free helpers used across the
runtime, simulator, ML framework and HPO layers: deterministic seeding,
wall-clock timing, ASCII plotting (the stand-in for the paper's matplotlib
dashboards), logging configuration, and argument validation.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "seeding": ("SeedSequenceFactory", "derive_seed", "rng_from"),
    "timing": ("Stopwatch", "format_duration"),
    "validation": (
        "check_positive", "check_non_negative", "check_in_range", "check_type",
        "check_one_of",
    ),
})

__all__ = [
    "SeedSequenceFactory",
    "derive_seed",
    "rng_from",
    "Stopwatch",
    "format_duration",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_one_of",
]
