from __future__ import annotations

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from compderiv import SequenceTooShortError, determinant
from compderiv.cli import _random_sequence
from compderiv.composition import DerivativeSequence, derivative_partition_sum
from compderiv.determinant import (
    PhiPolynomial,
    build_matrix,
    derivative_determinant,
    determinant_expand,
    interpret_phi_polynomial,
)
from oracles import matrix_entry, random_sequence


def seq(*values, base=None):
    return DerivativeSequence(derivs=tuple(values), base=base)


# --- PhiPolynomial ring --------------------------------------------------------

def test_polynomial_drops_zero_coefficients():
    p = PhiPolynomial({2: Fraction(0), 1: Fraction(3)})
    assert p.terms == ((1, Fraction(3)),)
    assert p == PhiPolynomial({1: Fraction(3)})
    assert PhiPolynomial([(1, 3), (2, 0)]) == p  # the pairs its repr and pickle pass back
    assert PhiPolynomial({0: Fraction(0)}) == PhiPolynomial({})


def test_polynomial_arithmetic():
    p = PhiPolynomial({1: 2})
    q = PhiPolynomial({2: Fraction(3), 0: Fraction(-1)})
    assert p * q == PhiPolynomial({3: Fraction(6), 1: Fraction(-2)})


def test_polynomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        PhiPolynomial({-1: 1})
    # Pairs name each exponent once, as a mapping does: no term is summed or dropped.
    with pytest.raises(ValueError, match="Phi exponent repeated: 2"):
        PhiPolynomial([(2, 1), (0, 1), (2, -1)])


@pytest.mark.parametrize("exponent", [1.5, True, "2"])
def test_polynomial_rejects_a_non_integer_exponent(exponent):
    # An exponent is a derivation order: 1.5 is not read as Phi^1, nor True as Phi^1.
    with pytest.raises(TypeError) as info:
        PhiPolynomial({exponent: 2})
    assert str(info.value) == f"Phi exponent must be an int: {exponent!r}"


def test_polynomial_rejects_inexact_coefficients():
    # The same rule as DerivativeSequence: no float, no decimal text, no bool.
    with pytest.raises(TypeError):
        PhiPolynomial({1: 0.1})
    with pytest.raises(ValueError, match="not a rational literal"):
        PhiPolynomial({2: "1.5"})
    with pytest.raises(TypeError):
        PhiPolynomial({0: True})


def test_polynomial_text_form():
    p = PhiPolynomial({3: Fraction(8), 2: Fraction(6), 1: Fraction(1)})
    assert str(p) == "8*Phi^3 + 6*Phi^2 + 1*Phi"
    assert str(PhiPolynomial({})) == "0"
    assert str(PhiPolynomial({0: Fraction(-3, 2)})) == "-3/2"
    mixed = PhiPolynomial({2: Fraction(1, 2), 0: Fraction(-4)})
    assert str(mixed) == "1/2*Phi^2 - 4"


# --- matrix construction --------------------------------------------------------

def test_three_by_three_example_entry_for_entry():
    # [[psi'''T, psi'T, 2psi''T], [psi''T, -1, psi'T], [psi'T, 0, -1]]
    p1, p2, p3 = Fraction(11), Fraction(13), Fraction(17)
    matrix = build_matrix(seq(p1, p2, p3), 2)
    assert matrix_entry(matrix, 1, 1) == PhiPolynomial({1: p3})
    assert matrix_entry(matrix, 1, 2) == PhiPolynomial({1: p1})
    assert matrix_entry(matrix, 1, 3) == PhiPolynomial({1: 2 * p2})
    assert matrix_entry(matrix, 2, 1) == PhiPolynomial({1: p2})
    assert matrix_entry(matrix, 2, 2) == PhiPolynomial({0: -1})
    assert matrix_entry(matrix, 2, 3) == PhiPolynomial({1: p1})
    assert matrix_entry(matrix, 3, 1) == PhiPolynomial({1: p1})
    assert matrix_entry(matrix, 3, 2) == PhiPolynomial({})
    assert matrix_entry(matrix, 3, 3) == PhiPolynomial({0: -1})


def test_row_one_column_three_coefficient_is_two():
    matrix = build_matrix(seq(1, 1, 1), 2)
    assert matrix_entry(matrix, 1, 3) == PhiPolynomial({1: 2})


def test_row_two_column_five_coefficient_at_order_four():
    matrix = build_matrix(seq(1, 1, 1, 1, 1), 4)
    assert matrix_entry(matrix, 2, 5) == PhiPolynomial({1: 3})


@pytest.mark.parametrize("n", range(0, 9))
def test_structure_invariants(n):
    rng = random.Random(800 + n)
    psi = random_sequence(rng, n + 1)
    matrix = build_matrix(psi, n)
    columns, _ = matrix
    size = len(columns)
    minus_one = PhiPolynomial({0: -1})
    for r in range(1, size + 1):
        assert matrix_entry(matrix, r, 1) == PhiPolynomial({1: psi.derivs[n + 1 - r]})
        if r >= 2:
            assert matrix_entry(matrix, r, r) == minus_one
        for c in range(2, r):
            assert matrix_entry(matrix, r, c) == PhiPolynomial({})
        for c in range(r + 1, size + 1):
            expected = math.comb(n - r + 1, c - r - 1) * psi.derivs[c - r - 1]
            assert matrix_entry(matrix, r, c) == PhiPolynomial({1: expected})


def test_build_matrix_needs_order_plus_one_derivatives():
    with pytest.raises(ValueError):
        build_matrix(seq(1, 1), 2)


def _boundary_values(rng, size, lead):
    """psi', psi'', ... over 5, 7, then ``lead``, then each over one of 1, 5, 7 and
    ``lead``: d = lcm(5, 7, *lead) next to twice the widest denominator's 3 bits."""
    pick = [5, 7, *lead, *(rng.choice([1, 5, 7, *lead]) for _ in range(size))][:size]
    return [Fraction(rng.choice([-3, -1, 1, 3]), b) for b in pick]  # odd: no b reduces


# psi draws for the shape test: each maps (rng, size) to ``size`` values.
MATRIX_DRAWS = {
    "small": lambda rng, size: [_small(rng) for _ in range(size)],
    "64-bit": lambda rng, size: [_odd_wide(rng) for _ in range(size)],
    "64-bit with zeros": lambda rng, size: [_wide(rng) for _ in range(size)],
    "equal wide denominators": lambda rng, size: [
        Fraction(rng.randrange(-(2**63), 2**63), 2**64 - 59) for _ in range(size)
    ],
    # d = 35 has 6 bits, twice 7's 3: one d.  With a 2 as well, d = 70 has 7: prefix scales.
    "just below the boundary": lambda rng, size: _boundary_values(rng, size, []),
    "just above the boundary": lambda rng, size: _boundary_values(rng, size, [2]),
}


def test_build_matrix_output_has_the_documented_shape_and_scales():
    # The layout build_matrix documents and the expansion does not check: a
    # pair of tuples, n + 1 tuple columns, column k of length k, every entry an
    # int; n + 1 positive int scales (not bools), each dividing the next, all
    # equal in the one-d layout.  Tuples all the way down, so the pair hashes
    # and pickle and copy give it back equal.
    rng = random.Random(5300)
    round_trips = [lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy]
    for name, draw in MATRIX_DRAWS.items():
        for n in range(31):
            values = draw(rng, n + 1)
            matrix = build_matrix(seq(*values), n)
            columns, scales = matrix
            assert type(matrix) is tuple and type(columns) is tuple and type(scales) is tuple
            assert all(type(column) is tuple for column in columns)
            for round_trip in round_trips:
                again = round_trip(matrix)
                assert again == matrix and hash(again) == hash(matrix)
            assert [len(column) for column in columns] == list(range(1, n + 2))
            assert all(type(x) is int for column in columns for x in column)
            assert len(scales) == n + 1
            assert all(type(scale) is int and scale >= 1 for scale in scales)
            assert all(high % low == 0 for low, high in zip(scales, scales[1:]))
            dens = [v.denominator for v in values]
            one_d = math.lcm(*dens).bit_length() <= 2 * max(dens).bit_length()
            if n >= 2 and name.startswith("just"):
                assert one_d is ("below" in name), (name, n)
            if one_d:
                assert len(set(scales)) == 1, (name, n, scales)


# --- determinant expansion -------------------------------------------------------

def test_expand_one_by_one_base_case():
    matrix = build_matrix(seq(Fraction(9, 4)), 0)
    assert matrix == (((9,),), (4,))
    assert matrix_entry(matrix, 1, 1) == PhiPolynomial({1: Fraction(9, 4)})
    assert determinant_expand(matrix) == PhiPolynomial({1: Fraction(9, 4)})


def test_expand_first_derivative_edge():
    # n=0 built matrix is [psi'*T]; interpreting gives phi'*psi' = D^1.
    expanded = determinant_expand(build_matrix(seq(Fraction(5, 2)), 0))
    assert expanded == PhiPolynomial({1: Fraction(5, 2)})


def test_expand_linear_inner_keeps_only_top_power():
    expanded = determinant_expand(build_matrix(seq(1, 0, 0), 2))
    assert expanded == PhiPolynomial({3: 1})


def test_expand_golden_third_order():
    expanded = determinant_expand(build_matrix(seq(2, 1, 1), 2))
    assert expanded == PhiPolynomial(
        {3: Fraction(8), 2: Fraction(6), 1: Fraction(1)}
    )
    assert str(expanded) == "8*Phi^3 + 6*Phi^2 + 1*Phi"


@pytest.mark.parametrize("n", range(1, 9))
def test_exponents_stay_in_range(n):
    rng = random.Random(900 + n)
    expanded = determinant_expand(build_matrix(random_sequence(rng, n + 1), n))
    exponents = [e for e, _ in expanded.terms]
    assert exponents  # never collapses to the zero polynomial generically
    assert all(1 <= e <= n + 1 for e in exponents)


@pytest.mark.parametrize("n", range(1, 9))
def test_expansion_cut_at_top_keeps_the_lower_powers(n):
    # The route cuts the expansion through _powers: the first top powers of
    # the full run, whatever top it asks for.
    rng = random.Random(950 + n)
    columns, scales = build_matrix(random_sequence(rng, n + 1), n)
    full = list(determinant._powers(columns, scales, n + 1))
    assert [p for p, _, _ in full] == list(range(1, n + 2))
    for top in range(n + 2):
        assert list(determinant._powers(columns, scales, top)) == full[:top]


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_law(n):
    # The raw determinant equals (-1)^n * D^{n+1} once Phi powers are read
    # as derivative orders.
    rng = random.Random(1000 + n)
    phi = random_sequence(rng, n + 1)
    psi = random_sequence(rng, n + 1)
    raw = interpret_phi_polynomial(
        determinant_expand(build_matrix(psi, n)), phi
    )
    direct = derivative_partition_sum(phi, psi, n + 1)
    assert raw == (-1) ** n * direct


def test_interpreting_needs_phi_up_to_the_highest_exponent():
    expanded = determinant_expand(build_matrix(seq(1, 2, 3), 2))  # up to Phi^3
    with pytest.raises(SequenceTooShortError) as info:
        interpret_phi_polynomial(expanded, seq(1))
    assert str(info.value).endswith("order 3 requested but only 1 derivative(s) supplied")
    assert interpret_phi_polynomial(PhiPolynomial({0: 5}), seq()) == 5


# 64-bit numerators over 64-bit denominators, about 30 % of them zero.
wide_entries = st.tuples(
    st.integers(0, 9),
    st.builds(Fraction, st.integers(-(2**63), 2**63), st.integers(1, 2**64)),
).map(lambda pair: Fraction(0) if pair[0] < 3 else pair[1])


def fraction_minor_expansion(psi, n):
    """Phi^p coefficients of the determinant by the leading-minor recurrence
    H_k = sum_i cell(i, k+1) * H_{i-1} on Fractions (column n+2 read as 1),
    each cell's c built straight from psi by the paper's formula, without
    ``build_matrix``."""

    def cell(r, c):  # c of the entry c * Phi at row r, column c (c == 1 or c > r)
        if c == 1:
            return psi[n + 1 - r]  # psi^(n+2-r)
        return math.comb(n - r + 1, c - r - 1) * psi[c - r - 1]  # C(n-r+1, c-r-1) psi^(c-r)

    size = n + 1
    minors = [[Fraction(1)]]  # minors[k][p] is the coefficient of Phi^p in H_k
    for k in range(1, size + 1):
        acc = [Fraction(0)] * (k + 1)
        for i in range(1, k + 1):
            c = cell(i, k % size + 1)
            for p, h in enumerate(minors[i - 1]):
                acc[p + 1] += c * h
        minors.append(acc)
    sign = (-1) ** n
    return {p: sign * h for p, h in enumerate(minors[-1]) if h}


@given(st.lists(wide_entries, min_size=1, max_size=15), st.booleans())  # n = 0..14
@example(values=[Fraction(-7, 3)], flat_start=False)  # n = 0
@example(values=[Fraction(0)] * 6, flat_start=False)  # all-zero psi
@example(values=[Fraction(5, 2), Fraction(-1, 3), 0, Fraction(2**63, 3)], flat_start=True)
# Prefix scales 7, 210, 16590: at Phi^1 only H_0 is nonzero, and it pairs with psi^(m).
@example(values=[Fraction(1, 7), Fraction(1, 30), Fraction(1, 79)], flat_start=False)
@example(  # prefix scales on 64-bit values, with a zero and an integer that lift by 1
    values=[Fraction(2**63 - 1, 2**64 - 59), 0, Fraction(-(2**62), 2**61 - 1), Fraction(5),
            Fraction(3, 2**64 - 1), Fraction(-1, 2**63 - 25)],
    flat_start=False,
)
@example(  # one wide d shared by every order: the one-scale loop
    values=[Fraction(k * (2**63 - 1), 2**64 - 59) for k in (3, -1, 4, 0, -5, 9)], flat_start=True
)
def test_expand_matches_fraction_minors_on_wide_rationals(values, flat_start):
    if flat_start:
        values = [Fraction(0), *values[1:]]  # psi' = 0
    n = len(values) - 1
    expanded = determinant_expand(build_matrix(seq(*values), n))
    assert dict(expanded.terms) == fraction_minor_expansion(values, n)


def one_scale_powers(values, n, top):
    """The expansion's loop on one common scale: (p, c, scale) for p = 1..top,
    psi^(1..n+1) written over their lcm d, each entry of a power one
    sum(map(mul, ...)) over the previous power's scale times d, and the column
    divided by its gcd with that scale.  It keeps its own lcm and gcd, so it
    reads neither ``build_matrix`` nor ``exact.reduced``."""
    d = math.lcm(*(v.denominator for v in values[: n + 1]))
    a = [v.numerator * (d // v.denominator) for v in values[: n + 1]]
    columns = [[math.comb(n - i + 1, k - i) * a[k - i] for i in range(1, k + 1)] for k in range(1, n + 1)]
    columns.append(a[::-1])
    column, scale, out = [1], 1, []
    for p in range(1, top + 1):
        column = [sum(map(operator.mul, c[p - 1 :], column)) for c in columns[p - 1 :]]
        g = math.gcd(scale * d, *column)
        column, scale = [x // g for x in column], scale * d // g
        out.append((p, column[-1], scale))
    return out


def assert_powers_match_one_scale(values, graded, tops=None):
    """``_powers`` on ``build_matrix``'s layout, prefix scales when ``graded``, yields
    the one-scale loop's triples at each top (default: every top from 0 to n+1)."""
    n = len(values) - 1
    columns, scales = build_matrix(seq(*values), n)
    assert (scales[0] != scales[-1]) is graded
    reference = one_scale_powers(values, n, n + 1)
    for top in range(n + 2) if tops is None else tops:
        assert list(determinant._powers(columns, scales, top)) == reference[:top]


def _odd_wide(rng):
    return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_prefix_scales_expand_as_one_scale_on_coprime_64_bit_values(n):
    # Two 64-bit denominators have an lcm of at most 128 bits, so n = 1 keeps one scale.
    rng = random.Random(4000 + n)
    assert_powers_match_one_scale([_odd_wide(rng) for _ in range(n + 1)], n >= 2, [0, 1, n // 2, n + 1])


@pytest.mark.parametrize("n", [7, 12, 25])
def test_prefix_scales_that_stop_growing_expand_as_one_scale(n):
    # Every third value 0 and small values mixed in: many lifts are 1, and
    # past the first half only small denominators join, so L_j stops growing.
    rng = random.Random(4100 + n)
    half = (n + 1) // 2
    values = [
        Fraction(0) if j % 3 == 0 else _odd_wide(rng) if j <= half and rng.random() < 0.7 else _small(rng)
        for j in range(1, n + 2)
    ]
    _, scales = build_matrix(seq(*values), n)
    lifts = [high // low for low, high in zip(scales, scales[1:])]
    assert 1 in lifts and any(f > 2**60 for f in lifts)
    assert scales[-1] // scales[half - 1] < 2**10
    assert_powers_match_one_scale(values, True)


def test_equal_wide_denominators_keep_one_wide_scale():
    b = 2**64 - 59
    rng = random.Random(4200)
    values = [Fraction(rng.randrange(-(2**63), 2**63), b) for _ in range(21)]
    _, scales = build_matrix(seq(*values), 20)
    assert scales == (b,) * 21
    assert_powers_match_one_scale(values, False)


def test_the_layout_rule_at_its_boundary():
    # Prefix scales when d has more bits than twice the widest b_j.
    # One 64-bit denominator among small ones: d has 68 bits, not above 128.
    wide = Fraction(2**63 - 1, 2**64 - 59)
    assert_powers_match_one_scale([Fraction(1, 3), Fraction(-1, 4), wide, Fraction(2), 0, Fraction(3, 2)], False)
    # d = 35 has 6 bits, twice 5's 3; d = 70 has 7.
    assert_powers_match_one_scale([Fraction(1, 5), Fraction(2, 7)], False)
    assert_powers_match_one_scale([Fraction(1, 5), Fraction(2, 7), Fraction(-1, 2)], True)


@pytest.mark.parametrize("n", [2, 8, 20, 40])
def test_check_style_values_keep_one_scale(n):
    rng = random.Random(4300 + n)
    for _ in range(5):
        assert_powers_match_one_scale(list(_random_sequence(rng, n + 1).derivs), False, [0, 2, n + 1])


def _recorded_dens(monkeypatch, phi, psi, order):
    """(den, scale) per call of ``reduced`` while the route runs: the den it was handed
    and the scale it returned."""
    calls, real = [], determinant.reduced

    def recording(ints, den):
        ints, scale = real(ints, den)
        calls.append((den, scale))
        return ints, scale

    monkeypatch.setattr(determinant, "reduced", recording)
    derivative_determinant(phi, psi, order)
    return calls


def test_each_power_is_reduced_over_its_prefix_scale_on_wide_values(monkeypatch):
    # The psi of test_determinant_expands_only_the_powers_phi_reads: odd 64-bit
    # denominators, d of 1,778 bits.  Power p reads psi up to order w = 31 - p,
    # so it is reduced over the previous scale times L_w, not times d.
    rng = random.Random(30)
    psi = seq(*(_odd_wide(rng) for _ in range(30)))
    phi = seq(*(Fraction(k, 3) for k in range(1, 31)))
    _, scales = build_matrix(psi, 29)
    assert scales[-1].bit_length() == 1778
    calls = _recorded_dens(monkeypatch, phi, psi, 30)
    previous = [1] + [scale for _, scale in calls[:-1]]
    assert [den for den, _ in calls] == [s * scales[30 - p] for p, s in enumerate(previous, start=1)]
    # Over d at every power the dens would sum to 140,565 bits, the last to 3,675.
    assert sum(den.bit_length() for den, _ in calls) == 114_862
    assert calls[-1][0].bit_length() == 1961


def test_each_power_is_reduced_over_d_on_check_style_values(monkeypatch):
    rng = random.Random(31)
    psi, phi = _random_sequence(rng, 30), _random_sequence(rng, 30)
    _, scales = build_matrix(psi, 29)
    (d,) = set(scales)
    calls = _recorded_dens(monkeypatch, phi, psi, 30)
    assert calls
    previous = [1] + [scale for _, scale in calls[:-1]]
    assert [den for den, _ in calls] == [s * d for s in previous]


# --- full route -------------------------------------------------------------------

def test_third_order_worked_example():
    assert derivative_determinant(seq(1, 1, 1), seq(2, 1, 1), 3) == 15


def test_linear_inner_function():
    c = Fraction(7, 3)
    phi = seq(4, 9, 16)
    assert derivative_determinant(phi, seq(c, 0, 0), 3) == 16 * c**3


def test_identity_outer_function():
    rng = random.Random(1100)
    psi = random_sequence(rng, 2)
    assert derivative_determinant(seq(1, 0), psi, 2) == psi.derivs[1]


def test_orders_below_two_rejected():
    with pytest.raises(ValueError):
        derivative_determinant(seq(1), seq(1), 1)
    with pytest.raises(ValueError):
        derivative_determinant(seq(1, 1), seq(1, 1), 0)


def test_sequences_too_short_rejected():
    with pytest.raises(ValueError):
        derivative_determinant(seq(1, 1), seq(1, 1, 1), 3)


def _small(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _wide(rng):
    if rng.randrange(3) == 0:
        return Fraction(0)
    return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**64))


@pytest.mark.parametrize("draw", [_small, _wide], ids=["small", "64-bit"])
@pytest.mark.parametrize("order", range(2, 13))
def test_route_equals_the_sign_corrected_expansion(order, draw):
    # The route sums the expansion's powers as integer pairs with
    # exact.rational_sum; reading the same powers through PhiPolynomial and
    # interpret_phi_polynomial's plain Fraction sum gives its value.
    rng = random.Random(3200 + order)
    n = order - 1
    for _ in range(10):
        phi = seq(*(draw(rng) for _ in range(order)))
        psi = seq(*(draw(rng) for _ in range(order)))
        raw = interpret_phi_polynomial(determinant_expand(build_matrix(psi, n)), phi)
        assert derivative_determinant(phi, psi, order) == (-1) ** n * raw


@pytest.mark.parametrize("order", range(2, 12))
def test_matches_partition_route(order):
    rng = random.Random(1200 + order)
    for _ in range(30):
        phi = random_sequence(rng, order)
        psi = random_sequence(rng, order)
        assert derivative_determinant(phi, psi, order) == derivative_partition_sum(
            phi, psi, order
        )
