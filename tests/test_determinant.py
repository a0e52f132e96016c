from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from compderiv.composition import DerivativeSequence, derivative_partition_sum
from compderiv.determinant import (
    CompositionMatrix,
    PhiPolynomial,
    build_matrix,
    derivative_determinant,
    determinant_expand,
    interpret_phi_polynomial,
)
from oracles import random_sequence


def seq(*values, base=None):
    return DerivativeSequence(derivs=tuple(values), base=base)


# --- PhiPolynomial ring --------------------------------------------------------

def test_polynomial_drops_zero_coefficients():
    p = PhiPolynomial({2: Fraction(0), 1: Fraction(3)})
    assert list(p.items()) == [(1, Fraction(3))]
    assert p == PhiPolynomial({1: Fraction(3)})
    assert PhiPolynomial({0: Fraction(0)}) == PhiPolynomial.zero()


def test_polynomial_arithmetic():
    p = PhiPolynomial.monomial(1, 2)
    q = PhiPolynomial({2: Fraction(3), 0: Fraction(-1)})
    assert p * q == PhiPolynomial({3: Fraction(6), 1: Fraction(-2)})


def test_polynomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        PhiPolynomial.monomial(-1, 1)


def test_polynomial_text_form():
    p = PhiPolynomial({3: Fraction(8), 2: Fraction(6), 1: Fraction(1)})
    assert str(p) == "8*Phi^3 + 6*Phi^2 + 1*Phi"
    assert str(PhiPolynomial.zero()) == "0"
    assert str(PhiPolynomial.constant(Fraction(-3, 2))) == "-3/2"
    mixed = PhiPolynomial({2: Fraction(1, 2), 0: Fraction(-4)})
    assert str(mixed) == "1/2*Phi^2 - 4"


# --- matrix construction --------------------------------------------------------

def test_three_by_three_example_entry_for_entry():
    # [[psi'''T, psi'T, 2psi''T], [psi''T, -1, psi'T], [psi'T, 0, -1]]
    p1, p2, p3 = Fraction(11), Fraction(13), Fraction(17)
    matrix = build_matrix(seq(p1, p2, p3), 2)
    T = PhiPolynomial.monomial
    assert matrix.entry(1, 1) == T(1, p3)
    assert matrix.entry(1, 2) == T(1, p1)
    assert matrix.entry(1, 3) == T(1, 2 * p2)
    assert matrix.entry(2, 1) == T(1, p2)
    assert matrix.entry(2, 2) == PhiPolynomial.constant(-1)
    assert matrix.entry(2, 3) == T(1, p1)
    assert matrix.entry(3, 1) == T(1, p1)
    assert matrix.entry(3, 2) == PhiPolynomial.zero()
    assert matrix.entry(3, 3) == PhiPolynomial.constant(-1)


def test_row_one_column_three_coefficient_is_two():
    matrix = build_matrix(seq(1, 1, 1), 2)
    assert matrix.entry(1, 3) == PhiPolynomial.monomial(1, 2)


def test_row_two_column_five_coefficient_at_order_four():
    matrix = build_matrix(seq(1, 1, 1, 1, 1), 4)
    assert matrix.entry(2, 5) == PhiPolynomial.monomial(1, 3)


@pytest.mark.parametrize("n", range(0, 9))
def test_structure_invariants(n):
    rng = random.Random(800 + n)
    psi = random_sequence(rng, n + 1)
    matrix = build_matrix(psi, n)
    size = matrix.size
    minus_one = PhiPolynomial.constant(-1)
    for r in range(1, size + 1):
        assert matrix.entry(r, 1) == PhiPolynomial.monomial(1, psi.derivative(n + 2 - r))
        if r >= 2:
            assert matrix.entry(r, r) == minus_one
        for c in range(2, r):
            assert matrix.entry(r, c) == PhiPolynomial.zero()
        for c in range(r + 1, size + 1):
            expected = math.comb(n - r + 1, c - r - 1) * psi.derivative(c - r)
            assert matrix.entry(r, c) == PhiPolynomial.monomial(1, expected)


def test_build_matrix_needs_order_plus_one_derivatives():
    with pytest.raises(ValueError):
        build_matrix(seq(1, 1), 2)


def test_matrix_rejects_wrongly_shaped_columns():
    good = build_matrix(seq(1, 1, 1), 2)
    assert [len(column) for column in good.columns] == [1, 2, 3]
    for columns in [
        good.columns[:2],  # one column short
        good.columns + ((1, 1, 1, 1),),  # one column too many
        ((1,), (1, 1, 1), (1, 1, 1)),  # column 2 one cell too long
        ((1,), (1, 1), (1, 1)),  # column 3 one cell short
    ]:
        with pytest.raises(ValueError):
            CompositionMatrix(n=2, columns=columns, scale=1)
    with pytest.raises(ValueError):
        CompositionMatrix(n=2, columns=good.columns, scale=0)
    with pytest.raises(ValueError):
        CompositionMatrix(n=-1, columns=(), scale=1)
    for r, c in [(0, 1), (1, 0), (4, 1), (1, 4)]:
        with pytest.raises(IndexError):
            good.entry(r, c)


# --- determinant expansion -------------------------------------------------------

def test_expand_one_by_one_base_case():
    matrix = CompositionMatrix(n=0, columns=((9,),), scale=4)
    assert matrix.entry(1, 1) == PhiPolynomial.monomial(1, Fraction(9, 4))
    assert determinant_expand(matrix) == PhiPolynomial.monomial(1, Fraction(9, 4))


def test_expand_first_derivative_edge():
    # n=0 built matrix is [psi'*T]; interpreting gives phi'*psi' = D^1.
    expanded = determinant_expand(build_matrix(seq(Fraction(5, 2)), 0))
    assert expanded == PhiPolynomial.monomial(1, Fraction(5, 2))


def test_expand_linear_inner_keeps_only_top_power():
    expanded = determinant_expand(build_matrix(seq(1, 0, 0), 2))
    assert expanded == PhiPolynomial.monomial(3, 1)


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
    exponents = [e for e, _ in expanded.items()]
    assert exponents  # never collapses to the zero polynomial generically
    assert all(1 <= e <= n + 1 for e in exponents)


@pytest.mark.parametrize("n", range(1, 9))
def test_expansion_cut_at_top_keeps_the_lower_powers(n):
    rng = random.Random(950 + n)
    matrix = build_matrix(random_sequence(rng, n + 1), n)
    full = list(determinant_expand(matrix).items())
    for top in range(n + 2):
        assert list(determinant_expand(matrix, top).items()) == [t for t in full if t[0] <= top]
    for top in (-1, n + 2):
        with pytest.raises(ValueError, match="top must satisfy"):
            determinant_expand(matrix, top)


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


# 64-bit numerators over 64-bit denominators, about 30 % of them zero.
wide_entries = st.tuples(
    st.integers(0, 9),
    st.builds(Fraction, st.integers(-(2**63), 2**63), st.integers(1, 2**64)),
).map(lambda pair: Fraction(0) if pair[0] < 3 else pair[1])


def fraction_minor_expansion(psi, n):
    """Phi^p coefficients of the determinant by the leading-minor recurrence
    H_k = sum_i cell(i, k+1) * H_{i-1} on Fractions (column n+2 read as 1),
    each cell's c built straight from psi by the paper's formula, without
    ``build_matrix`` or ``CompositionMatrix``."""

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
def test_expand_matches_fraction_minors_on_wide_rationals(values, flat_start):
    if flat_start:
        values = [Fraction(0), *values[1:]]  # psi' = 0
    n = len(values) - 1
    expanded = determinant_expand(build_matrix(seq(*values), n))
    assert dict(expanded.items()) == fraction_minor_expansion(values, n)


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
    assert derivative_determinant(seq(1, 0), psi, 2) == psi.derivative(2)


def test_orders_below_two_rejected():
    with pytest.raises(ValueError):
        derivative_determinant(seq(1), seq(1), 1)
    with pytest.raises(ValueError):
        derivative_determinant(seq(1, 1), seq(1, 1), 0)


def test_sequences_too_short_rejected():
    with pytest.raises(ValueError):
        derivative_determinant(seq(1, 1), seq(1, 1, 1), 3)


@pytest.mark.parametrize("order", range(2, 12))
def test_matches_partition_route(order):
    rng = random.Random(1200 + order)
    for _ in range(30):
        phi = random_sequence(rng, order)
        psi = random_sequence(rng, order)
        assert derivative_determinant(phi, psi, order) == derivative_partition_sum(
            phi, psi, order
        )
