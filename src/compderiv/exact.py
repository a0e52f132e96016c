"""Exact scalar arithmetic: arbitrary-precision rationals and their text
form, the falling factorials of the power route, and the integer-scaled form.

Every entry point that takes a derivative order n checks it with ``check_order``.

The coefficient field is ``fractions.Fraction``.  Fractions are always
stored reduced with a positive denominator, which makes equality
structural: every cross-route check in this package is a plain ``==``.
There is no floating point anywhere in the computational core.

The integer-scaled form of rationals is integers over their least common
denominator (``scaled``), kept small by dividing the integers and their
denominator by their gcd (``reduced``); ``convolve`` multiplies
coefficient lists.  The Bell, determinant and jet routes use ``scaled``
and ``reduced``, and the symbolic expansion ``reduced`` and ``convolve``;
the partition route stays on Fractions.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Any, Sequence

__all__ = [
    "MAX_LITERAL_DIGITS",
    "MAX_ORDER",
    "check_order",
    "falling_factorial",
    "parse_rational",
    "format_rational",
    "int_text",
    "as_rational",
    "scaled",
    "reduced",
    "convolve",
]

# Text form is "p/q" or "p" (q=1 elided) with an optional leading minus.
_RATIONAL_RE = re.compile(r"^(-?)([0-9]+)(?:/([0-9]+))?$")

# Longest digit run a number literal may have, in rational text, in an
# expression or as a JSON integer: Python's default bound on int/str
# conversion, which this package checks itself instead of changing it.
MAX_LITERAL_DIGITS = 4300

# Highest order any entry point accepts, a time bound: bell -n 100 takes 2 s, -n 200 58 s.
MAX_ORDER = 100


def check_order(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_ORDER."""
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"derivative order {n} > MAX_ORDER = {MAX_ORDER}")


def falling_factorial(m: int, p: int) -> int:
    """Return m * (m-1) * ... * (m-p+1), the product of p descending factors.

    Defined for any integer m; the empty product (p = 0) is 1.  For
    0 <= m < p the result is 0 because one factor is 0.
    """
    if p < 0:
        raise ValueError(f"falling_factorial requires p >= 0, got {p}")
    result = 1
    for i in range(p):
        result *= m - i
    return result


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational text form "p/q" or "p".

    The value is reduced on construction, so "4/6" parses to 2/3.
    Raises ValueError for anything outside the grammar (decimals,
    whitespace inside the token, digits other than ASCII 0-9, zero
    denominators) and for a numerator or denominator of more than
    MAX_LITERAL_DIGITS digits.
    """
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal (expected 'p' or 'p/q'): {text!r}")
    sign, numerator_digits, denominator_digits = match.groups()
    longest = max(len(numerator_digits), len(denominator_digits or ""))
    if longest > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"number literal of {longest} digits: "
            f"at most {MAX_LITERAL_DIGITS} digits are allowed"
        )
    numerator = int(sign + numerator_digits)
    denominator = int(denominator_digits) if denominator_digits is not None else 1
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)


def int_text(value: int) -> str:
    """Decimal digits of any integer; unlike str(), no MAX_LITERAL_DIGITS bound."""
    return str(decimal.Decimal(value))


def format_rational(value: Fraction) -> str:
    """Emit the canonical text form: "p/q", or just "p" when q = 1."""
    value = Fraction(value)
    text = int_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{int_text(value.denominator)}"


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: this package has no inexact mode.
    Booleans are rejected too, so a JSON ``true`` is not read as 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers a_i and the least d >= 1 with values[i] == a_i / d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def reduced(ints: list[int], den: int) -> tuple[list[int], int]:
    """``ints`` and ``den`` divided by their gcd; as given when it is 1."""
    content = math.gcd(den, *ints)
    if content > 1:
        return [x // content for x in ints], den // content
    return ints, den


def convolve(a: Sequence[Any], b: Sequence[Any], size: int) -> list[Any]:
    """The first ``size`` coefficients of a * b (lowest degree first)."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                if y:
                    out[j] += x * y
    return out
