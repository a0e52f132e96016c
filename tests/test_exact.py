from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from compderiv.composition import power_derivatives
from compderiv.exact import (
    as_rational,
    convolve,
    format_rational,
    int_text,
    parse_rational,
    rational_sum,
    reduced,
    taylor_scaled,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


def iterated_factorial(l: int) -> int:
    acc = 1
    for i in range(1, l + 1):
        acc *= i
    return acc


# The k-th derivative of x**m at x = 1 is the falling factorial m(m-1)...(m-k+1),
# which power_derivatives keeps as one running product; l! is the one of l with l factors.
def falling(m: int, k: int) -> Fraction:
    derivatives = power_derivatives(m, Fraction(1), max(k, 1))
    return derivatives.derivs[k - 1] if k else derivatives.base


def test_factorial_empty_product():
    assert falling(0, 0) == 1


def test_factorial_of_three():
    assert falling(3, 3) == 6


def test_factorial_of_ten_matches_iterated_multiplication():
    assert iterated_factorial(10) == 3628800
    assert falling(10, 10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError, match="must be positive"):
        power_derivatives(3, Fraction(1), -1)


@pytest.mark.parametrize("l", range(1, 30))
def test_factorial_recurrence(l):
    assert falling(l, l) == l * falling(l - 1, l - 1)


def test_falling_factorial_examples():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0  # hits the zero factor
    assert falling(-2, 3) == -24


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


def test_taylor_scaled_writes_d_k_over_k_factorial_over_one_denominator():
    # The base, then d_k / k!: [2, 1, 3/2] from order 0 is [2, 1, 3/4] over
    # the values' lcm 2 times 2!, and a missing base enters as 0.
    assert taylor_scaled([Fraction(2), Fraction(1), Fraction(3, 2)], 0) == ([8, 4, 3], 4)
    assert taylor_scaled([Fraction(0), Fraction(6)], 0) == ([0, 6], 1)
    assert taylor_scaled([Fraction(2)], 0) == ([2], 1)
    # From order 1 with one value, the weight and 1! are 1: the lcm alone.
    assert taylor_scaled([Fraction(-5, 6)], 1) == ([-5], 6)
    # Over the least common denominator 6, not the product 36, and zeros add nothing to it.
    assert taylor_scaled([Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(5, 6)], 1) == (
        [3 * 24, -2 * 12, 0, 5], 6 * 24
    )
    assert taylor_scaled([Fraction(-4), Fraction(0)], 1) == ([-8, 0], 2)
    assert taylor_scaled([Fraction(0), Fraction(0)], 1) == ([0, 0], 2)
    # An order-0 jet has no derivatives to scale, from any start.
    assert taylor_scaled([], 0) == taylor_scaled([], 1) == taylor_scaled([], 5) == ([], 1)
    rng = random.Random(34)
    for start in (0, 1, 5):
        for size in range(1, 12):
            values = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else Fraction(0)
                for _ in range(size)
            ]
            ints, d = taylor_scaled(values, start)
            assert d >= 1 and all(isinstance(x, int) for x in ints)
            assert d == math.lcm(*(v.denominator for v in values)) * math.factorial(start + size - 1)
            assert [Fraction(x, d) for x in ints] == [
                v / math.factorial(k) for k, v in enumerate(values, start)
            ]


def test_convolve_truncates_and_pads():
    # It pads nothing: past the product's degree a larger size adds no zeros.
    assert convolve([1, 2], [3, 4], 3) == [3, 10, 8]
    assert convolve([1, 2], [3, 4], 2) == [3, 10]
    assert convolve([1, 2], [3, 4], 5) == [3, 10, 8]
    assert convolve([0, -1, 0, 2], [5, 0, -3], 6) == [0, -5, 0, 13, 0, -6]
    assert convolve([], [1, 2], 2) == [0]
    assert convolve([1, 2], [3], 0) == []


@given(st.lists(rationals, max_size=12), st.integers(0, 5))
@example(values=[], start=0)
@example(values=[], start=4)
def test_scaled_is_exact_and_least(values, start):
    a, d = taylor_scaled(values, start)
    if not values:
        assert (a, d) == ([], 1)
        return
    assert d >= 1 and all(isinstance(x, int) for x in a)
    last = start + len(values) - 1
    assert [Fraction(x, d) for x in a] == [v / math.factorial(k) for k, v in enumerate(values, start)]
    # Without the weights last! / k! and last!, the integers are over the values'
    # least common denominator: no prime divides it and every one of them.
    lcm, rest = divmod(d, math.factorial(last))
    plain = [x // (math.factorial(last) // math.factorial(k)) for k, x in enumerate(a, start)]
    assert rest == 0 and [Fraction(x, lcm) for x in plain] == values
    assert math.gcd(lcm, *plain) == 1


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
        for k in range(max(0, min(size, len(a) + len(b) - 1)))
    ]
    assert convolve(a, b, size) == expected
    da, db = (math.lcm(*(v.denominator for v in values)) for values in (a, b))
    ia, ib = [int(v * da) for v in a], [int(v * db) for v in b]
    assert [Fraction(c, da * db) for c in convolve(ia, ib, size)] == expected


# --- sums over one running lcm --------------------------------------------------


def assert_rational_sum(pairs):
    total = rational_sum(pairs)
    assert total == sum((Fraction(a, b) for a, b in pairs), Fraction(0))
    assert total.denominator > 0 and math.gcd(total.numerator, total.denominator) == 1
    return total


def test_rational_sum_of_no_terms_and_of_zero_terms_is_zero():
    assert assert_rational_sum([]) == 0
    assert assert_rational_sum([(0, 7), (0, 2**64 - 59)]) == 0


def test_rational_sum_over_one_repeated_denominator():
    # Every denominator after the first divides the running lcm (g == den).
    assert assert_rational_sum([(3, 14), (-5, 14), (9, 14)]) == Fraction(1, 2)
    assert assert_rational_sum([(1, 12), (0, 5), (1, 4), (-1, 6), (-1, 12)]) == Fraction(1, 12)
    assert assert_rational_sum([(-4, 6), (-1, 3)]) == -1


def test_rational_sum_over_pairwise_coprime_64_bit_denominators():
    # Each term lifts the lcm; with every num / den reduced, the sum's
    # denominator is the product of all of them.
    rng = random.Random(29)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < 12:
        num, den = rng.randrange(-(2**63), 2**63), rng.randrange(2**63, 2**64)
        if math.gcd(num, den) == 1 and all(math.gcd(den, d) == 1 for _, d in pairs):
            pairs.append((num, den))
    assert assert_rational_sum(pairs).denominator == math.prod(d for _, d in pairs)


@given(
    st.lists(
        st.tuples(
            st.integers(-(2**70), 2**70),
            st.one_of(st.integers(1, 12), st.integers(1, 2**64)),
        ),
        max_size=12,
    )
)
def test_rational_sum_equals_the_fraction_sum(pairs):
    assert_rational_sum(pairs)
