"""Exact scalar arithmetic: arbitrary-precision rationals and their text
form, and the integer-scaled form.

Every entry point that takes a derivative order n checks it with
``check_order``, and the power route checks its exponent m with
``check_exponent``.  Both, like every integer argument the package checks,
apply ``check_int``'s rule: an ``int``, not a ``bool``, within its bounds.

The coefficient field is ``fractions.Fraction``.  Fractions are always
stored reduced with a positive denominator, which makes equality
structural: every cross-route check in this package is a plain ``==``.
There is no floating point anywhere in the computational core.

The integer-scaled form of rationals is integers over their least common
denominator (``scaled``), kept small by dividing the integers and their
denominator by their gcd (``reduced``); ``convolve`` multiplies
coefficient lists, and ``taylor_scaled`` writes Taylor coefficients
d_k / k! in the form.  Bell and the power route read psi through
``taylor_scaled``; the determinant uses ``scaled`` and ``reduced``; the
series route ``taylor_scaled``, ``reduced`` and ``convolve``; and the
symbolic expansion ``reduced`` and ``convolve``.  The partition route
keeps integers of its own and uses none of them.

``rational_sum`` adds integer pairs num / den over one running lcm of the
denominators and reduces once, at the end.  The partition sum, Bell, the
determinant and the series route add their terms with it; the symbolic
route does not read it.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction
from typing import Any, Iterable, Sequence

__all__ = [
    "MAX_LITERAL_DIGITS",
    "MAX_ORDER",
    "MAX_EXPONENT",
    "check_int",
    "check_order",
    "check_exponent",
    "parse_rational",
    "format_rational",
    "int_text",
    "as_rational",
    "scaled",
    "taylor_scaled",
    "reduced",
    "convolve",
    "rational_sum",
]

# Text form is "p/q" or "p" (q=1 elided) with an optional leading minus.
_RATIONAL_RE = re.compile(r"^(-?)([0-9]+)(?:/([0-9]+))?$")

# Longest digit run a number literal may have, in rational text, in an
# expression or as a JSON integer: Python's default bound on int/str
# conversion, which this package checks itself instead of changing it.
MAX_LITERAL_DIGITS = 4300

# Highest order any entry point accepts, a time bound on small values only: bell -n 100
# takes 0.21-0.25 s on a 2-vCPU host and -n 200 took 1.9 s, but Bell at n = 100 on nonzero
# 64-bit values takes about 4.5 s; no bound covers their bits yet (ROADMAP item 4).
MAX_ORDER = 100

# Largest |m| of a power x**m: the largest exponent after '^' in an expression
# (and product of the exponents on a path through nested powers), and of the
# power route's m.  The symbolic route expands a power by e convolutions, and
# the power route's integers grow with m.
MAX_EXPONENT = 2000


def check_int(
    value: Any, what: str, low: int | None = None, high: tuple[str, int] | None = None
) -> None:
    """Raise TypeError unless ``value`` is an int, not a bool (2.0 and True are not 2 and 1),
    and ValueError below ``low`` (0 or 1) or above ``high``, a (constant name, limit) pair."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int: {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be {'positive' if low else 'non-negative'}, got {value}")
    if high is not None and value > high[1]:
        raise ValueError(f"{what} {value} > {high[0]} = {high[1]}")


def check_order(n: int) -> None:
    """Raise TypeError unless n is an int, ValueError unless 1 <= n <= MAX_ORDER."""
    check_int(n, "derivative order", 1, ("MAX_ORDER", MAX_ORDER))


def check_exponent(m: int) -> None:
    """Raise TypeError unless m is an int, ValueError unless |m| <= MAX_EXPONENT."""
    check_int(m, "exponent")
    if abs(m) > MAX_EXPONENT:
        raise ValueError(f"exponent {m}: |m| > MAX_EXPONENT = {MAX_EXPONENT}")


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


def taylor_scaled(values: Sequence[Fraction], start: int) -> tuple[list[int], int]:
    """Integers a_i and d with values[i] / (start + i)! == a_i / d.

    d is ``scaled``'s least common denominator times top = (start + len - 1)!,
    not reduced.  The weights top / k! are one running product, from the last
    order down: k = start + len - 1 takes 1, and each lower k one more factor.
    """
    xs, d = scaled(values)
    last = start + len(xs) - 1
    weight = 1
    for k in range(last, start - 1, -1):
        xs[k - start] *= weight
        weight *= k
    return xs, d * math.factorial(last)


def reduced(ints: list[int], den: int) -> tuple[list[int], int]:
    """``ints`` and ``den`` divided by their gcd; as given when it is 1."""
    content = math.gcd(den, *ints)
    if content > 1:
        return [x // content for x in ints], den // content
    return ints, den


def convolve(a: Sequence[Any], b: Sequence[Any], size: int) -> list[Any]:
    """a * b (lowest degree first), cut after ``size`` coefficients; never padded."""
    size = min(size, len(a) + len(b) - 1)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                if y:
                    out[j] += x * y
    return out


def rational_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of num / den over integer pairs with den > 0, as one reduced Fraction.

    The terms add up over one running lcm of their denominators, unreduced:
    a term whose denominator divides it costs one division and one product,
    any other lifts the sum by den / gcd.  A zero term is skipped, so it
    does not grow the lcm.  One gcd per term and one Fraction at the end,
    instead of a reduced Fraction and the gcds of its product and sum per term.
    """
    total, common = 0, 1
    for num, den in pairs:
        if not num:
            continue
        g = math.gcd(common, den)
        if g == den:
            total += num * (common // den)
        else:
            scale = den // g
            total = total * scale + num * (common // g)
            common *= scale
    return Fraction(total, common)
