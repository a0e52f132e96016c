from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv import SequenceTooShortError
from compderiv.composition import DerivativeSequence, derivative_partition_sum
from compderiv.determinant import derivative_determinant
from compderiv.series import (
    derivative_via_jets,
    jet_compose,
    jet_from_derivatives,
    jet_mul,
)
from oracles import jet_compose_on_fractions, random_sequence

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

# 64-bit numerators over four 64-bit primes, mixed with zeros and small values:
# the lcm of the first m inner denominators stops growing once each prime has
# come up, so a wide jet has rows both below and at the lcm of them all.
PRIME_DENOMINATORS = (2**64 - 59, 2**64 - 83, 2**64 - 95, 2**63 - 25)
shared_prime_entries = st.one_of(
    st.just(Fraction(0)),
    small_rationals,
    st.builds(
        Fraction, st.integers(-(2**63), 2**63), st.sampled_from(PRIME_DENOMINATORS)
    ),
)


@given(st.integers(0, 12), st.data())
def test_compose_matches_horner_on_fractions(order, data):
    def values():
        return data.draw(
            st.one_of(
                st.lists(jet_entries, min_size=order + 1, max_size=order + 1),
                st.lists(shared_prime_entries, min_size=order + 1, max_size=order + 1),
                st.just([Fraction(0)] * (order + 1)),
            )
        )

    outer, inner = jet(*values()), jet(*values())
    expected = jet_compose_on_fractions(outer, inner)
    assert jet_compose(outer, inner) == expected
    if order:
        assert derivative_via_jets(outer, inner, order) == expected.derivs[-1]


def _jet_cases(order, rng):
    """Outer and inner jets of ``order`` that reach each part of the composition loop."""

    def small():
        return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 4))

    def wide():
        return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**64))

    def seq(value, zero=lambda k: False):
        return jet(value(), *(Fraction(0) if zero(k) else value() for k in range(1, order + 1)))

    return [
        (seq(small), seq(small)),
        (seq(wide, lambda k: k % 3 == 0), seq(wide, lambda k: k % 3 == 1)),
        # Every other b_k zero, and psi' = 0: g starts at t^2, g^k at t^(2k).
        (seq(small, lambda k: k % 2 == 0), seq(small, lambda k: k == 1)),
        # b_k = 0 past k = 1: no giant step is taken.
        (seq(small, lambda k: k > 1), seq(small)),
        (seq(small), seq(lambda: Fraction(0))),
    ]


@pytest.mark.parametrize("order", range(1, 25))
def test_baby_and_giant_steps_match_horner_on_fractions_at_every_order(order):
    # Orders 1..24 take the block size r = isqrt(n // 2) + 1 through 1..4, the
    # number of giant steps n // r through 0..7, and a partial last block.
    rng = random.Random(3100 + order)
    for outer, inner in _jet_cases(order, rng):
        expected = jet_compose_on_fractions(outer, inner)
        assert jet_compose(outer, inner) == expected
        assert derivative_via_jets(outer, inner, order) == expected.derivs[-1]


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
    assert str(info.value) == (
        "jet derivative sequence too short: order 3 requested but only 1 derivative(s) supplied"
    )
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
