from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv.composition import DerivativeSequence, derivative_partition_sum
from compderiv.determinant import derivative_determinant
from compderiv.series import (
    Jet,
    derivative_via_jets,
    jet_compose,
    jet_from_derivatives,
    jet_mul,
)
from oracles import random_sequence

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def jet(*coeffs):
    return Jet(tuple(Fraction(c) for c in coeffs))


def jets_of_order(order):
    return st.lists(
        small_rationals, min_size=order + 1, max_size=order + 1
    ).map(lambda cs: Jet(tuple(cs)))


# --- mul -------------------------------------------------------------------------

def test_mul_binomial_square():
    assert jet_mul(jet(1, 1, 0), jet(1, 1, 0)) == jet(1, 2, 1)


def test_mul_one_jet_is_identity():
    a = jet(2, Fraction(1, 3), -5)
    assert jet_mul(a, jet(1, 0, 0)) == a


def test_mul_hand_cauchy_product():
    # (1 + t + t^2) * (1 - t) = 1 + 0t + 0t^2 (mod t^3)
    assert jet_mul(jet(1, 1, 1), jet(1, -1, 0)) == jet(1, 0, 0)


@given(jets_of_order(5), jets_of_order(5))
def test_mul_commutes(a, b):
    assert jet_mul(a, b) == jet_mul(b, a)


@given(jets_of_order(4), jets_of_order(4), jets_of_order(4))
def test_mul_distributes_over_add(a, b, c):
    def add(u, v):
        return Jet(tuple(x + y for x, y in zip(u.coeffs, v.coeffs)))

    assert jet_mul(a, add(b, c)) == add(jet_mul(a, b), jet_mul(a, c))


# --- compose ----------------------------------------------------------------------

def test_compose_square_of_t_plus_t_squared():
    outer = jet(0, 0, 1, 0, 0)  # t^2
    inner = jet(0, 1, 1, 0, 0)  # t + t^2
    assert jet_compose(outer, inner) == jet(0, 0, 1, 2, 1)  # t^2 + 2t^3 + t^4


def test_compose_identity_outer():
    inner = jet(0, 5, Fraction(-2, 3), 1)
    outer = jet(0, 1, 0, 0)  # t
    assert jet_compose(outer, inner) == inner


def test_compose_requires_centered_inner():
    with pytest.raises(ValueError):
        jet_compose(jet(0, 1, 0), jet(1, 1, 0))


def test_compose_order_mismatch():
    with pytest.raises(ValueError):
        jet_compose(jet(0, 1), jet(0, 1, 0))


@given(jets_of_order(6), st.data())
def test_compose_associativity(a, data):
    centered = st.lists(small_rationals, min_size=6, max_size=6).map(
        lambda cs: Jet((Fraction(0),) + tuple(cs))
    )
    b = data.draw(centered)
    c = data.draw(centered)
    assert jet_compose(jet_compose(a, b), c) == jet_compose(a, jet_compose(b, c))


# 64-bit numerators over 64-bit denominators (almost always coprime in pairs),
# mixed with zeros and small values.
jet_entries = st.one_of(
    st.just(Fraction(0)),
    small_rationals,
    st.builds(Fraction, st.integers(-(2**63), 2**63), st.integers(1, 2**64)),
)


@given(st.integers(0, 12), st.data())
def test_compose_matches_horner_on_fractions(order, data):
    def coefficients(centered):
        entries = data.draw(
            st.one_of(
                st.lists(jet_entries, min_size=order + 1, max_size=order + 1),
                st.just([Fraction(0)] * (order + 1)),
            )
        )
        return [Fraction(0)] + entries[1:] if centered else entries

    outer, inner = coefficients(False), coefficients(True)
    # Horner's scheme r <- r * inner + b_k with Cauchy products, on Fractions.
    r = [Fraction(0)] * (order + 1)
    for b in reversed(outer):
        r = [
            sum((r[i] * inner[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(order + 1)
        ]
        r[0] += b
    assert jet_compose(Jet(tuple(outer)), Jet(tuple(inner))) == Jet(tuple(r))


@pytest.mark.parametrize("seed", range(3))
def test_every_degree_of_an_order_30_jet_matches_the_determinant_route(seed):
    # The degree window builds the low degrees last; check each against an
    # independent route on 64-bit values, every third one 0.
    rng = random.Random(1500 + seed)

    def wide():
        if rng.randrange(3) == 0:
            return Fraction(0)
        return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**64))

    order = 30
    phi = DerivativeSequence(derivs=tuple(wide() for _ in range(order)))
    psi = DerivativeSequence(derivs=tuple(wide() for _ in range(order)))
    composed = jet_compose(
        jet_from_derivatives(phi, order), jet_from_derivatives(psi, order)
    )
    for m in range(2, order + 1):
        assert composed.coeffs[m] * factorial(m) == derivative_determinant(phi, psi, m)


# --- conversions -------------------------------------------------------------------

def test_jet_from_derivatives_divides_by_factorials():
    s = DerivativeSequence(derivs=(Fraction(2), Fraction(6)))
    assert jet_from_derivatives(s, 2) == jet(0, 2, 3)


def test_jet_from_derivatives_uses_base():
    s = DerivativeSequence(derivs=(Fraction(2),), base=Fraction(7))
    assert jet_from_derivatives(s, 1) == jet(7, 2)


def test_all_factorial_derivatives_give_unit_coefficients():
    s = DerivativeSequence(
        derivs=tuple(Fraction(factorial(k)) for k in range(1, 6)), base=Fraction(1)
    )
    assert jet_from_derivatives(s, 5) == jet(1, 1, 1, 1, 1, 1)


def test_length_mismatch_rejected():
    s = DerivativeSequence(derivs=(Fraction(1),))
    with pytest.raises(ValueError):
        jet_from_derivatives(s, 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_is_identity(n):
    rng = random.Random(1300 + n)
    s = random_sequence(rng, n, with_base=True)
    coeffs = jet_from_derivatives(s, n).coeffs
    back = DerivativeSequence(
        derivs=tuple(factorial(k) * coeffs[k] for k in range(1, n + 1)), base=coeffs[0]
    )
    assert back == s


# --- oracle identity ----------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_derivative_extraction_matches_partition_route(n):
    rng = random.Random(1400 + n)
    for _ in range(20):
        phi = random_sequence(rng, n)
        psi = random_sequence(rng, n)
        assert derivative_via_jets(phi, psi, n) == derivative_partition_sum(
            phi, psi, n
        )


def test_derivative_via_jets_centers_inner_itself():
    phi = DerivativeSequence(derivs=(Fraction(1), Fraction(1)), base=Fraction(9))
    psi = DerivativeSequence(derivs=(Fraction(2), Fraction(3)), base=Fraction(5))
    assert derivative_via_jets(phi, psi, 2) == 7
