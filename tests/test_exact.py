from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv.exact import (
    as_rational,
    convolve,
    falling_factorial,
    format_rational,
    int_text,
    parse_rational,
    reduced,
    scaled,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


def iterated_factorial(l: int) -> int:
    acc = 1
    for i in range(1, l + 1):
        acc *= i
    return acc


# l! is the falling factorial of l with l factors, l * (l-1) * ... * 1.
def test_factorial_empty_product():
    assert falling_factorial(0, 0) == 1


def test_factorial_of_three():
    assert falling_factorial(3, 3) == 6


def test_factorial_of_ten_matches_iterated_multiplication():
    assert iterated_factorial(10) == 3628800
    assert falling_factorial(10, 10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@pytest.mark.parametrize("l", range(1, 30))
def test_factorial_recurrence(l):
    assert falling_factorial(l, l) == l * falling_factorial(l - 1, l - 1)


def test_falling_factorial_examples():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(2, 3) == 0  # hits the zero factor
    assert falling_factorial(-2, 3) == -24


@given(rationals, rationals)
def test_field_add_then_subtract(x, y):
    assert (x + y) - y == x


@given(rationals, rationals)
def test_field_mul_then_divide(x, y):
    if y != 0:
        assert (x * y) / y == x


@given(rationals, rationals, rationals)
def test_field_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(rationals)
def test_stored_reduced_with_positive_denominator(x):
    assert x.denominator > 0
    from math import gcd

    assert gcd(abs(x.numerator), x.denominator) == 1
    if x == 0:
        assert x.denominator == 1


def test_parse_plain_integer():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("-" + "9" * 4300) == -(10**4300 - 1)


def test_parse_fraction_reduces():
    value = parse_rational("4/6")
    assert value == Fraction(2, 3)
    assert value.numerator == 2 and value.denominator == 3


def test_parse_negative_fraction():
    assert parse_rational("-3/4") == Fraction(-3, 4)


@pytest.mark.parametrize(
    "bad",
    ["1.5", "3/-4", "+3", "a", "", "1/0", "1 / 2", "\u0663/2", "1/\u0663"]
    + [
        pytest.param("1" * 4301, id="4301-digit-numerator"),
        pytest.param("-" + "1" * 4301, id="4301-digit-negative-numerator"),
        pytest.param("1/" + "1" * 4301, id="4301-digit-denominator"),
    ],
)
def test_parse_rejects_out_of_grammar(bad):
    with pytest.raises(ValueError) as err:
        parse_rational(bad)
    assert "set_int_max_str_digits" not in str(err.value)
    if len(bad) > 4300:
        assert "at most 4300 digits" in str(err.value)


def test_format_elides_unit_denominator():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-5)) == "-5"
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(0)) == "0"


def test_format_prints_results_of_any_size():
    # 5000 digits: past the 4300 that str() of an int allows by default.
    assert int_text(3 * 10**4999) == "3" + "0" * 4999
    assert int_text(-(10**5000 - 1)) == "-" + "9" * 5000
    assert format_rational(Fraction(-(10**5000 - 1), 2)) == "-" + "9" * 5000 + "/2"
    assert format_rational(Fraction(1, 10**4999)) == "1/1" + "0" * 4999


@given(rationals)
def test_text_form_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_as_rational_coercions():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert as_rational("-5/10") == Fraction(-1, 2)
    for value in (0.5, True, False):
        with pytest.raises(TypeError):
            as_rational(value)
    with pytest.raises(ValueError):
        as_rational("0.5")


# --- integer-scaled form ------------------------------------------------------


def test_scaled_clears_the_least_common_denominator():
    assert scaled([Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(5, 6)]) == (
        [3, -2, 0, 5],
        6,
    )
    assert scaled([Fraction(-4), Fraction(0)]) == ([-4, 0], 1)
    assert scaled([Fraction(0), Fraction(0)]) == ([0, 0], 1)
    assert scaled([]) == ([], 1)


def test_convolve_truncates_and_pads():
    assert convolve([1, 2], [3, 4], 3) == [3, 10, 8]
    assert convolve([1, 2], [3, 4], 2) == [3, 10]
    assert convolve([1, 2], [3, 4], 5) == [3, 10, 8, 0, 0]
    assert convolve([0, -1, 0, 2], [5, 0, -3], 6) == [0, -5, 0, 13, 0, -6]
    assert convolve([], [1, 2], 2) == [0, 0]
    assert convolve([1, 2], [3], 0) == []


@given(st.lists(rationals, max_size=12))
def test_scaled_is_exact_and_least(values):
    a, d = scaled(values)
    assert d >= 1 and all(isinstance(x, int) for x in a)
    assert [Fraction(x, d) for x in a] == values
    # d is least exactly when no prime divides d and every a_i.
    assert math.gcd(d, *a) == 1


@given(st.lists(st.integers(-(10**6), 10**6), max_size=8), st.integers(1, 10**6))
def test_reduced_keeps_the_values_and_drops_the_gcd(ints, den):
    a, d = reduced(ints, den)
    assert d >= 1 and [Fraction(x, d) for x in a] == [Fraction(x, den) for x in ints]
    assert math.gcd(d, *a) == 1


def test_reduced_returns_coprime_input_as_given():
    ints = [3, -4, 0]
    assert reduced(ints, 5)[0] is ints
    assert reduced([6, -4, 0], 10) == ([3, -2, 0], 5)
    assert reduced([0, 0], 7) == ([0, 0], 1)
    assert reduced([], 9) == ([], 1)


@given(
    st.lists(rationals, max_size=10),
    st.lists(rationals, max_size=10),
    st.integers(min_value=0, max_value=22),
)
def test_convolve_of_scaled_lists_matches_fraction_arithmetic(a, b, size):
    expected = [
        sum((a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)), Fraction(0))
        for k in range(size)
    ]
    assert convolve(a, b, size) == expected
    (ia, da), (ib, db) = scaled(a), scaled(b)
    assert [Fraction(c, da * db) for c in convolve(ia, ib, size)] == expected
