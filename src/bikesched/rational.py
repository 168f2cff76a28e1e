"""Exact rational parsing and formatting.

Every quantity in this library (interval lengths, speeds, times, bounds) is a
``fractions.Fraction``.  All comparisons are exact; nothing is ever rounded.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

RationalLike = int | str | Fraction


def to_fraction(value: RationalLike) -> Fraction:
    """Convert a user-supplied value to an exact Fraction.

    Accepts ints, Fractions, "p/q" strings and finite decimal strings.  Decimal
    strings are read as exact decimal fractions ("1.25" -> 5/4), never as
    binary floats.  Floats are rejected: they carry rounding error.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational value: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}: pass an int, Fraction or string like '5/4'"
        )
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return Fraction(int(num.strip()), int(den.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {value!r}") from exc
        try:
            number = Decimal(text)
        except InvalidOperation as exc:
            raise ValueError(f"bad rational literal {value!r}") from exc
        if not number.is_finite():
            raise ValueError(f"not a finite rational: {value!r}")
        return Fraction(number)
    raise ValueError(f"not a rational value: {value!r}")


def format_fraction(q: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers), losslessly."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
