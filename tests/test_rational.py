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
