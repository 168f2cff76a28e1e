import sys
import time
from fractions import Fraction

import pytest

from bikesched.rational import format_fraction, to_fraction


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("3/4", Fraction(3, 4)),
        (" 10 / 4 ", Fraction(5, 2)),
        ("1.25", Fraction(5, 4)),
        ("2", Fraction(2)),
        (7, Fraction(7)),
        (Fraction(9, 11), Fraction(9, 11)),
        ("-1/3", Fraction(-1, 3)),
        ("0.1", Fraction(1, 10)),  # exact decimal, not the binary float
    ],
)
def test_to_fraction(raw, expected):
    assert to_fraction(raw) == expected


@pytest.mark.parametrize(
    "raw", ["x", "1/0", "1/2/3", 1.25, True, None, "1.2.3", "inf", "-Infinity", "nan"]
)
def test_to_fraction_rejects(raw):
    with pytest.raises(ValueError):
        to_fraction(raw)


def test_format_round_trip():
    for q in [Fraction(3, 4), Fraction(5), Fraction(-7, 2), Fraction(0)]:
        assert to_fraction(format_fraction(q)) == q


@pytest.mark.parametrize(
    "raw", ["1e-2000000", "0." + "1" * 100000, "1e4300", "1e-4300", "9" * 4301 + ".5"]
)
def test_to_fraction_bounds_a_decimal_literal(raw):
    # The int-string limit that refuses a long "p/q" literal bounds a
    # decimal's numerator and denominator too, before any conversion.
    limit = sys.get_int_max_str_digits()
    start = time.process_time()
    with pytest.raises(ValueError, match=f"limit of {limit}"):
        to_fraction(raw)
    assert time.process_time() - start < 0.5


def test_to_fraction_decimal_at_the_limit():
    # 10**limit has one digit too many in either form.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError):
        to_fraction("1/1" + "0" * limit)
    assert to_fraction(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert to_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
