from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv import composition, determinant, exact, partitions
from compderiv.composition import (
    DerivativeSequence,
    SequenceTooShortError,
    derivative_bell,
    derivative_partition_sum,
    lagrange_power_coefficient,
    partial_bell,
    power_derivatives,
)
from compderiv.determinant import derivative_determinant
from compderiv.series import derivative_via_jets
from compderiv.symbolic import derivative_sequence_of, nth_derivative_of_composition, parse
from oracles import (
    composition_derivative_by_set_partitions,
    random_rational,
    random_sequence,
    set_partitions,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def seq(*values, base=None):
    return DerivativeSequence(derivs=tuple(values), base=base)


# --- derivative_partition_sum -------------------------------------------------

def test_first_order_is_chain_rule():
    a, b = Fraction(5, 3), Fraction(-7, 2)
    assert derivative_partition_sum(seq(a), seq(b), 1) == a * b


def test_third_order_worked_example():
    # phi'''*psi'^3 + 3*phi''*psi'*psi'' + phi'*psi''' = 8 + 6 + 1
    value = derivative_partition_sum(seq(1, 1, 1), seq(2, 1, 1), 3)
    assert value == 15
    assert value == 1 * 2**3 + 3 * 1 * 2 * 1 + 1 * 1


def test_second_order_worked_example():
    assert derivative_partition_sum(seq(1, 1), seq(2, 3), 2) == 7  # psi'^2 + psi''


@pytest.mark.parametrize("n", range(1, 8))
def test_identity_outer_returns_inner_derivative(n):
    rng = random.Random(100 + n)
    psi = random_sequence(rng, n)
    phi = seq(*([1] + [0] * (n - 1)))
    assert derivative_partition_sum(phi, psi, n) == psi.derivative(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_matches_set_partition_expansion(n):
    rng = random.Random(200 + n)
    for _ in range(25):
        phi, psi = random_sequence(rng, n), random_sequence(rng, n)
        expected = composition_derivative_by_set_partitions(phi, psi, n)
        assert derivative_partition_sum(phi, psi, n) == expected


def test_too_short_phi_is_reported_with_role_and_order():
    with pytest.raises(SequenceTooShortError) as err:
        derivative_partition_sum(seq(1, 1), seq(1, 1, 1), 3)
    assert err.value.role == "phi"
    assert err.value.needed == 3
    assert err.value.available == 2
    assert "phi" in str(err.value) and "3" in str(err.value)


def test_too_short_psi_is_reported():
    with pytest.raises(SequenceTooShortError) as err:
        derivative_partition_sum(seq(1, 1, 1), seq(1), 3)
    assert err.value.role == "psi"


def test_rejects_nonpositive_order():
    # One check owns the order rule: every entry point that takes an order
    # rejects 0 and MAX_ORDER + 1 with its message, even on long enough input.
    top = exact.MAX_ORDER
    ones = seq(*[1] * (top + 1), base=1)
    x = parse("x")
    entry_points = [
        lambda n: derivative_partition_sum(ones, ones, n),
        lambda n: derivative_bell(ones, ones, n),
        lambda n: derivative_determinant(ones, ones, n),
        lambda n: derivative_via_jets(ones, ones, n),
        lambda n: nth_derivative_of_composition(x, x, n, 0),
        lambda n: lagrange_power_coefficient(ones, 2, n),
        lambda n: partial_bell(n, 1, ones),
        lambda n: derivative_sequence_of(x, 0, n),
        lambda n: power_derivatives(2, 1, n),
    ]
    # The determinant form (entry 2) names its own lowest order, 2.
    lowest = "determinant route needs order >= 2, got 0; use the partition route"
    for i, call in enumerate(entry_points):
        with pytest.raises(ValueError) as err:
            call(0)
        assert str(err.value).startswith(
            lowest if i == 2 else "derivative order must be positive, got 0"
        )
        with pytest.raises(ValueError) as err:
            call(top + 1)
        assert str(err.value) == f"derivative order {top + 1} > MAX_ORDER = {top}"


@given(
    st.integers(min_value=1, max_value=6),
    small_rationals,
    small_rationals,
    st.data(),
)
def test_linearity_in_outer_function(n, a, b, data):
    u = [data.draw(small_rationals) for _ in range(n)]
    v = [data.draw(small_rationals) for _ in range(n)]
    psi = seq(*[data.draw(small_rationals) for _ in range(n)])
    combined = seq(*[a * x + b * y for x, y in zip(u, v)])
    left = derivative_partition_sum(combined, psi, n)
    right = a * derivative_partition_sum(seq(*u), psi, n) + b * derivative_partition_sum(
        seq(*v), psi, n
    )
    assert left == right


@given(st.integers(min_value=1, max_value=7), small_rationals, st.data())
def test_scaling_law(n, lam, data):
    phi = seq(*[data.draw(small_rationals) for _ in range(n)])
    psi_values = [data.draw(small_rationals) for _ in range(n)]
    scaled = seq(*[lam**j * v for j, v in enumerate(psi_values, start=1)])
    base_value = derivative_partition_sum(phi, seq(*psi_values), n)
    assert derivative_partition_sum(phi, scaled, n) == lam**n * base_value


@pytest.mark.parametrize("n", range(1, 8))
def test_linear_inner_function(n):
    rng = random.Random(300 + n)
    phi = random_sequence(rng, n)
    c = random_rational(rng)
    psi = seq(*([c] + [0] * (n - 1)))
    assert derivative_partition_sum(phi, psi, n) == phi.derivative(n) * c**n


# --- partial Bell polynomials and the Bell route ------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_single_block_bell_is_top_derivative(n):
    rng = random.Random(400 + n)
    psi = random_sequence(rng, n)
    assert partial_bell(n, 1, psi) == psi.derivative(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_all_singletons_bell_is_first_derivative_power(n):
    rng = random.Random(500 + n)
    psi = random_sequence(rng, n)
    assert partial_bell(n, n, psi) == psi.derivative(1) ** n


def test_b42_counts_two_block_set_partitions():
    two_block = sum(1 for sp in set_partitions(list(range(4))) if len(sp) == 2)
    assert two_block == 7
    assert partial_bell(4, 2, seq(1, 1, 1)) == 7
    # 4*psi'*psi''' + 3*psi''^2
    assert partial_bell(4, 2, seq(2, 3, 5)) == 4 * 2 * 5 + 3 * 3**2


def test_partial_bell_needs_only_n_minus_k_plus_1_derivatives():
    assert partial_bell(4, 2, seq(1, 1, 1)) == 7  # length 3 = n-k+1


def test_partial_bell_out_of_range():
    psi = seq(1, 1, 1)
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= n, got k=0, n=3$"):
        partial_bell(3, 0, psi)
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= n, got k=4, n=3$"):
        partial_bell(3, 4, psi)


@pytest.mark.parametrize(
    "n, expected",
    [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877), (8, 4140)],
)
def test_partial_bell_sums_to_bell_number(n, expected):
    ones = seq(*[1] * n)
    assert sum(partial_bell(n, k, ones) for k in range(1, n + 1)) == expected


def test_bell_skips_the_outer_orders_where_phi_vanishes(monkeypatch):
    # phi = x**2 has phi^(k) = 0 for k > 2, so B_{12,k} is needed for k = 1, 2 only.
    rng = random.Random(12)
    phi, psi = power_derivatives(2, Fraction(7, 3), 12), random_sequence(rng, 12)
    seen = []

    def recording(n, k, psi):
        seen.append(k)
        return partial_bell(n, k, psi)

    monkeypatch.setattr(composition, "partial_bell", recording)
    assert derivative_bell(phi, psi, 12) == derivative_determinant(phi, psi, 12)
    assert sorted(seen) == [1, 2]


def test_determinant_expands_only_the_powers_phi_reads(monkeypatch):
    # phi = x**2 reads Phi^1 and Phi^2 only, so the expansion stops at top = 2;
    # a phi of all zeros reads none, and the value is 0.
    rng = random.Random(30)
    psi = seq(*(Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1) for _ in range(30)))
    tops, expand = [], determinant.determinant_expand

    def recording(matrix, top=None):
        tops.append(top)
        return expand(matrix, top)

    monkeypatch.setattr(determinant, "determinant_expand", recording)
    phi = power_derivatives(2, Fraction(7, 3), 30)
    assert derivative_determinant(phi, psi, 30) == derivative_bell(phi, psi, 30)
    assert tops == [2]
    assert derivative_determinant(seq(*[0] * 30), psi, 30) == 0
    assert tops == [2, 0]


def test_bell_route_first_order():
    assert derivative_bell(seq(3), seq(5), 1) == 15


def test_bell_route_all_ones_is_bell_number():
    assert derivative_bell(seq(1, 1, 1, 1), seq(1, 1, 1, 1), 4) == 15


@pytest.mark.parametrize("n", range(1, 13))
def test_bell_route_equals_partition_route(n):
    rng = random.Random(600 + n)
    for _ in range(20):
        phi, psi = random_sequence(rng, n), random_sequence(rng, n)
        assert derivative_bell(phi, psi, n) == derivative_partition_sum(phi, psi, n)


@pytest.mark.parametrize("n", [20, 25])
def test_bell_route_equals_partition_route_at_higher_orders(n):
    # 64-bit numerators and denominators, then small values about 30 % zero:
    # a zero pair factor makes every partition through it vanish.
    rng = random.Random(700 + n)

    def wide():
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1)

    def sparse():
        return 0 if rng.random() < 0.3 else random_rational(rng, 4, 4)

    for value in (wide, wide, sparse, sparse, sparse):
        phi, psi = seq(*[value() for _ in range(n)]), seq(*[value() for _ in range(n)])
        assert derivative_partition_sum(phi, psi, n) == derivative_bell(phi, psi, n)


@pytest.mark.parametrize("n", [2, 7, 20, 25])
def test_partition_route_with_vanishing_inner_derivatives(n):
    rng = random.Random(900 + n)
    phi = seq(*[random_rational(rng) for _ in range(n)])
    # psi' = 0: every partition with a part of size 1 drops out.
    psi = seq(0, *[random_rational(rng) for _ in range(n - 1)])
    assert derivative_partition_sum(phi, psi, n) == derivative_bell(phi, psi, n)
    # psi^(j) = 0 for j > 1: only the all-ones partition is left.
    slope = Fraction(-5, 3)
    psi = seq(slope, *[0] * (n - 1))
    expected = phi.derivative(n) * slope**n
    assert derivative_partition_sum(phi, psi, n) == expected
    assert derivative_bell(phi, psi, n) == expected


@pytest.mark.parametrize("n", [1, 8, 20])
def test_partition_route_uses_no_integer_scaled_form(n, monkeypatch):
    # The five-way check compares independent routes: the partition sum stays
    # on Fractions and never reaches the integer-scaled form the others share.
    rng = random.Random(950 + n)
    phi, psi = random_sequence(rng, n), random_sequence(rng, n)
    expected = derivative_bell(phi, psi, n)

    def refuse(*args):
        raise AssertionError("exact.scaled called")

    monkeypatch.setattr(exact, "scaled", refuse)
    monkeypatch.setattr(composition, "scaled", refuse)
    with pytest.raises(AssertionError, match="exact.scaled called"):
        derivative_bell(phi, psi, n)
    assert derivative_partition_sum(phi, psi, n) == expected


@pytest.mark.parametrize("n", [8, 40, 60, 100])
def test_bell_and_power_routes_enumerate_no_partitions(n, monkeypatch):
    # Only the partition sum may read the partition list, and it is out of
    # reach at these orders.  The determinant route gives the reference for
    # general phi; for phi = x**m, Miller's recurrence on Fractions does,
    # which shares no integer-scaled form with the Bell, determinant and
    # jet routes.
    def refuse(order):
        raise AssertionError(f"partitions of {order} enumerated")

    monkeypatch.setattr(partitions, "enumerate_multiplicity_vectors", refuse)
    monkeypatch.setattr(composition, "partition_parts", refuse)
    rng = random.Random(800 + n)
    phi, psi = random_sequence(rng, n), random_sequence(rng, n)
    # The guard sits on the walk the partition route really reads.
    with pytest.raises(AssertionError, match=f"partitions of {n} enumerated"):
        derivative_partition_sum(phi, psi, n)
    psi = DerivativeSequence(derivs=psi.derivs, base=Fraction(3, 2))
    # 64-bit numerators and denominators, every third value zero; the
    # determinant on them is the slow part, so not at n = 100.
    wide = [
        Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1) if j % 3 else 0
        for j in range(2 * n)
    ]
    inputs = [(phi, psi)]
    if n <= 60:
        inputs.append((seq(*wide[:n]), seq(*wide[n:])))
    for outer, inner in inputs:
        expected = derivative_determinant(outer, inner, n)
        assert derivative_bell(outer, inner, n) == expected
        assert derivative_via_jets(outer, inner, n) == expected
    for k in sorted({1, n // 2, n}):
        outer = seq(*[int(j == k) for j in range(1, n + 1)])
        assert partial_bell(n, k, psi) == derivative_determinant(outer, psi, n)
    for m in (-3, 2, 5):
        power = power_derivatives(m, psi.base, n)
        expected = lagrange_power_coefficient(psi, m, n) * factorial(n)
        assert derivative_bell(power, psi, n) == expected
        assert derivative_determinant(power, psi, n) == expected
        assert derivative_via_jets(power, psi, n) == expected


def test_partition_sum_retains_nothing_after_return():
    # The partition walk keeps no table between calls; n = 30 has 5604 terms.
    rng = random.Random(30)
    phi, psi = random_sequence(rng, 30), random_sequence(rng, 30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = derivative_partition_sum(phi, psi, 30)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert value == derivative_bell(phi, psi, 30)
    assert retained < 0.5 * 2**20


# --- the power special case ----------------------------------------------------

def test_power_route_first_order_is_product_rule():
    s, t = Fraction(7, 5), Fraction(-3, 2)
    assert lagrange_power_coefficient(seq(t, base=s), 2, 1) == 2 * s * t


def test_power_route_worked_example():
    assert lagrange_power_coefficient(seq(2, 3, base=1), 2, 2) == 7
    assert lagrange_power_coefficient(seq(2, 3, base=1), 0, 2) == 0  # psi**0 = 1


@pytest.mark.parametrize("n", range(1, 8))
def test_power_route_identity_exponent(n):
    rng = random.Random(700 + n)
    psi = random_sequence(rng, n)
    expected = psi.derivative(n) / factorial(n)
    assert lagrange_power_coefficient(psi, 1, n) == expected


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_power_route_consistent_with_general_formula(m, n):
    rng = random.Random(97 * m + n)
    psi = random_sequence(rng, n)
    phi_powers = power_derivatives(m, psi.base, n)
    general = derivative_partition_sum(phi_powers, psi, n)
    assert lagrange_power_coefficient(psi, m, n) * factorial(n) == general


@pytest.mark.parametrize("m", [-1, -2, -3])
@pytest.mark.parametrize("n", range(1, 6))
def test_power_route_negative_exponent(m, n):
    rng = random.Random(53 * abs(m) + n)
    psi = random_sequence(rng, n)
    if psi.base == 0:
        psi = DerivativeSequence(derivs=psi.derivs, base=Fraction(1, 3))
    phi_powers = power_derivatives(m, psi.base, n)
    general = derivative_partition_sum(phi_powers, psi, n)
    assert lagrange_power_coefficient(psi, m, n) * factorial(n) == general


def test_power_route_zero_base_with_small_positive_exponent():
    # The zero base is factored out as a power of y, so nothing divides by it.
    psi = seq(2, 3, 4, base=0)
    value = lagrange_power_coefficient(psi, 2, 3)
    # D^3(psi^2)/3! with psi = 2y + 3y^2/2 + 4y^3/6: coefficient of y^3 in psi^2.
    assert value == 2 * (Fraction(4, 6) * 0 + Fraction(2) * Fraction(3, 2))
    # psi = y^2 (psi' = 0, psi'' = 2) gives psi**m = y**(2m); psi = 0 gives 0.
    for m in range(6):
        for n in range(1, 13):
            square = seq(*[0, 2, *[0] * (n - 2)][:n], base=0)
            assert lagrange_power_coefficient(square, m, n) == (1 if n == 2 * m else 0)
            assert lagrange_power_coefficient(seq(*[0] * n, base=0), m, n) == 0


def test_power_route_zero_base_negative_exponent_raises():
    for psi in (seq(2, 3, base=0), seq(0, 0, base=0)):
        with pytest.raises(ZeroDivisionError):
            lagrange_power_coefficient(psi, -1, 2)


def test_power_route_requires_base():
    with pytest.raises(ValueError):
        lagrange_power_coefficient(seq(1, 1), 2, 2)


# --- DerivativeSequence plumbing ------------------------------------------------

def test_sequence_coerces_to_fractions():
    s = DerivativeSequence(derivs=(1, "3/2"), base="2")
    assert s.derivs == (Fraction(1), Fraction(3, 2))
    assert s.base == Fraction(2)
    # Taylor coefficients: the base, then d_k / k!; 0 stands in for a missing base.
    assert s.taylor_coefficients(2) == [2, 1, Fraction(3, 4)]
    assert DerivativeSequence(derivs=(6,)).taylor_coefficients(1) == [0, 6]
