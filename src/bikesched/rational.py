"""Exact rational parsing and formatting.

``fractions.Fraction`` is the boundary type of this library: every quantity
it takes or returns (interval lengths, speeds, times, bounds) is one.
Inside a solve or a check, quantities are int numerators over one common
denominator, built from and back into Fractions at the public functions.
All comparisons are exact; nothing is ever rounded.
"""

from __future__ import annotations

import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

RationalLike = int | str | Fraction


def to_fraction(value: RationalLike) -> Fraction:
    """Convert a user-supplied value to an exact Fraction.

    Accepts ints, Fractions, "p/q" strings and finite decimal strings.  Decimal
    strings are read as exact decimal fractions ("1.25" -> 5/4), never as
    binary floats.  Floats are rejected: they carry rounding error.  A
    decimal whose numerator or denominator, before reduction, would have
    more digits than Python's int-string limit
    (``sys.get_int_max_str_digits``) is rejected before it is converted, as
    ``int`` rejects such a "p/q" literal.
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
        _, digits, exponent = number.as_tuple()
        # Digits of coefficient * 10**exponent and of 10**-exponent.
        longest = max(len(digits) + exponent, 1 - exponent)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and longest > limit:
            raise ValueError(
                f"decimal literal needs {longest} digits, over the limit of {limit}"
            )
        return Fraction(number)
    raise ValueError(f"not a rational value: {value!r}")


def format_fraction(q: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers), losslessly."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
