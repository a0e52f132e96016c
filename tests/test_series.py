from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv.composition import (
    DerivativeSequence,
    SequenceTooShortError,
    derivative_partition_sum,
)
from compderiv.determinant import derivative_determinant
from compderiv.series import (
    derivative_via_jets,
    jet_compose,
    jet_from_derivatives,
    jet_mul,
)
from oracles import random_sequence

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def jet(base, *derivs):
    """The jet with value ``base`` and derivative values ``derivs``."""
    return DerivativeSequence(derivs=tuple(derivs), base=base)


def jets_of_order(order):
    return st.lists(
        small_rationals, min_size=order + 1, max_size=order + 1
    ).map(lambda values: jet(*values))


# --- mul -------------------------------------------------------------------------

def test_mul_binomial_square():
    # (1 + t)^2 = 1 + 2t + t^2: derivative values 2 and 2
    assert jet_mul(jet(1, 1, 0), jet(1, 1, 0)) == jet(1, 2, 2)


def test_mul_one_jet_is_identity():
    a = jet(2, Fraction(1, 3), -5)
    assert jet_mul(a, jet(1, 0, 0)) == a


def test_mul_hand_cauchy_product():
    # (1 + t + t^2) * (1 - t) = 1 + 0t + 0t^2 (mod t^3)
    assert jet_mul(jet(1, 1, 2), jet(1, -1, 0)) == jet(1, 0, 0)


@given(jets_of_order(5), jets_of_order(5))
def test_mul_commutes(a, b):
    assert jet_mul(a, b) == jet_mul(b, a)


@given(jets_of_order(4), jets_of_order(4), jets_of_order(4))
def test_mul_distributes_over_add(a, b, c):
    def add(u, v):
        return jet(u.base + v.base, *(x + y for x, y in zip(u.derivs, v.derivs)))

    assert jet_mul(a, add(b, c)) == add(jet_mul(a, b), jet_mul(a, c))


# --- compose ----------------------------------------------------------------------

def test_compose_square_of_t_plus_t_squared():
    outer = jet(0, 0, 2, 0, 0)  # t^2
    inner = jet(0, 1, 2, 0, 0)  # t + t^2
    assert jet_compose(outer, inner) == jet(0, 0, 2, 12, 24)  # t^2 + 2t^3 + t^4


def test_compose_identity_outer():
    inner = jet(3, 5, Fraction(-2, 3), 1)
    outer = jet(3, 1, 0, 0)  # x, taken at the inner value 3
    assert jet_compose(outer, inner) == inner


def test_compose_order_mismatch():
    with pytest.raises(ValueError):
        jet_compose(jet(0, 1), jet(0, 1, 0))


def test_compose_does_not_read_the_inner_base():
    outer = jet(Fraction(1, 2), 3, -1, Fraction(2, 7))
    composed = jet_compose(outer, jet(None, 2, 5, -4))
    for base in (0, 1, Fraction(-9, 4)):
        assert jet_compose(outer, jet(base, 2, 5, -4)) == composed


@given(jets_of_order(6), jets_of_order(6), jets_of_order(6))
def test_compose_associativity(a, b, c):
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
    def values():
        return data.draw(
            st.one_of(
                st.lists(jet_entries, min_size=order + 1, max_size=order + 1),
                st.just([Fraction(0)] * (order + 1)),
            )
        )

    outer, inner = jet(*values()), jet(*values())
    # Horner's scheme r <- r * inner + b_k with Cauchy products on the Taylor
    # coefficients d_k / k!, on Fractions; the inner series is centered.
    b = [outer.base] + [d / factorial(k) for k, d in enumerate(outer.derivs, 1)]
    u = [Fraction(0)] + [d / factorial(k) for k, d in enumerate(inner.derivs, 1)]
    r = [Fraction(0)] * (order + 1)
    for b_k in reversed(b):
        r = [
            sum((r[i] * u[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(order + 1)
        ]
        r[0] += b_k
    expected = jet(r[0], *(factorial(m) * r[m] for m in range(1, order + 1)))
    assert jet_compose(outer, inner) == expected


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
        assert composed.derivs[m - 1] == derivative_determinant(phi, psi, m)


# --- conversions -------------------------------------------------------------------

def test_jet_from_derivatives_uses_base():
    # The base is kept and the derivatives are cut at the order.
    s = jet(Fraction(7), 2, 6, 5)
    assert [jet_from_derivatives(s, k) for k in range(4)] == [
        jet(7),
        jet(7, 2),
        jet(7, 2, 6),
        s,
    ]


def test_length_mismatch_rejected():
    s = DerivativeSequence(derivs=(Fraction(1),))
    with pytest.raises(SequenceTooShortError) as info:
        jet_from_derivatives(s, 3)
    assert (info.value.needed, info.value.available) == (3, 1)
    with pytest.raises(ValueError):
        jet_from_derivatives(s, -1)


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_is_identity(n):
    rng = random.Random(1300 + n)
    s = random_sequence(rng, n, with_base=True)
    assert jet_from_derivatives(s, n) == s


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
    # psi's base 5 is not read; phi's derivatives are taken at psi's value.
    phi = DerivativeSequence(derivs=(Fraction(1), Fraction(1)), base=Fraction(9))
    psi = DerivativeSequence(derivs=(Fraction(2), Fraction(3)), base=Fraction(5))
    assert derivative_via_jets(phi, psi, 2) == 7
