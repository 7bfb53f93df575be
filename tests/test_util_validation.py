"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_at_least,
    check_in_range,
    check_non_negative,
    check_one_of,
    check_positive,
    check_type,
)


class TestCheckType:
    def test_accepts(self):
        assert check_type("x", 5, int) == 5

    def test_rejects(self):
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "s", int)

    def test_multiple_types(self):
        assert check_type("x", 5.0, (int, float)) == 5.0

    def test_message_lists_alternatives(self):
        with pytest.raises(TypeError, match="int or float"):
            check_type("x", "s", (int, float))


class TestNumericChecks:
    def test_positive_ok(self):
        assert check_positive("n", 3) == 3

    @pytest.mark.parametrize("bad", [0, -1, -0.5, float("nan")])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="n must be > 0"):
            check_positive("n", bad)

    def test_non_negative_ok(self):
        assert check_non_negative("n", 0) == 0

    def test_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("n", -0.1)

    def test_non_negative_rejects_nan(self):
        # NaN fails every comparison: ``value < 0`` let it through.
        with pytest.raises(ValueError, match="n must be >= 0, got nan"):
            check_non_negative("n", float("nan"))

    @pytest.mark.parametrize("bad", [0, float("nan")])
    def test_at_least_rejects(self, bad):
        with pytest.raises(ValueError, match="n must be >= 1"):
            check_at_least("n", bad, 1)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("p", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("p", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("p", 0.0, 0.0, 1.0, inclusive=False)

    def test_outside(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_in_range("p", 1.5, 0, 1)


class TestCheckOneOf:
    def test_ok(self):
        assert check_one_of("mode", "a", ["a", "b"]) == "a"

    def test_rejects_with_options_in_message(self):
        with pytest.raises(ValueError, match="'a', 'b'"):
            check_one_of("mode", "c", ["a", "b"])

    def test_works_with_generator(self):
        assert check_one_of("k", 2, (i for i in range(3))) == 2
