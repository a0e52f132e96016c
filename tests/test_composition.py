from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compderiv import SequenceTooShortError, composition, determinant, exact, partitions
from compderiv.composition import (
    DerivativeSequence,
    derivative_bell,
    derivative_partition_sum,
    lagrange_power_coefficient,
    partial_bell,
    power_derivatives,
)
from compderiv.determinant import (
    CompositionMatrix,
    PhiPolynomial,
    build_matrix,
    derivative_determinant,
)
from compderiv.partitions import multinomial_weight, partition_parts
from compderiv.series import derivative_via_jets, jet_from_derivatives
from compderiv.symbolic import Pow, derivative_sequence_of, nth_derivative_of_composition, parse
from oracles import (
    composition_derivative_by_set_partitions,
    partial_bell_by_binomials,
    partition_sum_on_fractions,
    power_coefficient_on_fractions,
    random_rational,
    random_sequence,
    set_partitions,
    stirling_second_kind,
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
    assert derivative_partition_sum(phi, psi, n) == psi.derivs[n - 1]


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
    assert str(err.value) == (
        "phi derivative sequence too short: order 3 requested but only 2 derivative(s) supplied"
    )


def test_too_short_psi_is_reported():
    with pytest.raises(SequenceTooShortError) as err:
        derivative_partition_sum(seq(1, 1, 1), seq(1), 3)
    assert str(err.value).startswith("psi derivative sequence too short: order 3 requested")


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
        # An int only: True is not read as 1, and 2.0 fails here, not inside a route.
        for value in (True, 2.0):
            with pytest.raises(TypeError) as err:
                call(value)
            assert str(err.value) == f"derivative order must be an int: {value!r}"


@pytest.mark.parametrize("value", [True, 2.0])
def test_other_integer_arguments_must_be_ints(value):
    # The order rule's check_int, on the power route's m, partial_bell's k, the
    # sizes of a matrix and a jet, a matrix's scale and a partition's multiplicities.
    ones = seq(1, 1, 1, base=1)
    calls = [
        ("exponent", lambda m: lagrange_power_coefficient(ones, m, 3)),
        ("exponent", lambda m: power_derivatives(m, 1, 3)),
        ("k", lambda k: partial_bell(3, k, ones)),
        ("matrix order", lambda n: build_matrix(ones, n)),
        ("jet order", lambda order: jet_from_derivatives(ones, order)),
        ("matrix scale", lambda scale: CompositionMatrix(((1,),), scale)),
        ("multiplicity", lambda mj: multinomial_weight((mj,))),
    ]
    for what, call in calls:
        with pytest.raises(TypeError) as err:
            call(value)
        assert str(err.value) == f"{what} must be an int: {value!r}"


def test_integer_arguments_below_their_lower_bound():
    # check_int's lower bound, 0 or 1, names the argument and the value it got.
    ones = seq(1, 1, 1)
    calls = [
        ("matrix order must be non-negative, got -1", lambda: build_matrix(ones, -1)),
        ("jet order must be non-negative, got -1", lambda: jet_from_derivatives(ones, -1)),
        ("Pow exponent must be non-negative, got -1", lambda: Pow(parse("x"), -1)),
        ("Phi exponent must be non-negative, got -1", lambda: PhiPolynomial({-1: 1})),
        ("matrix scale must be positive, got 0", lambda: CompositionMatrix(((1,),), 0)),
        ("multiplicity must be non-negative, got -1", lambda: multinomial_weight((-1, 2, 0))),
        ("partition order must be positive, got 0", lambda: next(partition_parts(0))),
    ]
    for message, call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


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
    assert derivative_partition_sum(phi, psi, n) == phi.derivs[n - 1] * c**n


# --- partial Bell polynomials and the Bell route ------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_single_block_bell_is_top_derivative(n):
    rng = random.Random(400 + n)
    psi = random_sequence(rng, n)
    assert partial_bell(n, 1, psi) == psi.derivs[n - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_all_singletons_bell_is_first_derivative_power(n):
    rng = random.Random(500 + n)
    psi = random_sequence(rng, n)
    assert partial_bell(n, n, psi) == psi.derivs[0] ** n


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
    tops, powers = [], determinant._powers

    def recording(matrix, top):
        tops.append(top)
        return powers(matrix, top)

    monkeypatch.setattr(determinant, "_powers", recording)
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
    expected = phi.derivs[n - 1] * slope**n
    assert derivative_partition_sum(phi, psi, n) == expected
    assert derivative_bell(phi, psi, n) == expected


def test_partition_route_equals_the_fraction_loop_it_replaced():
    # Integer weights over a running common denominator per outer order give
    # the values the Fraction products gave, on value families that drive
    # each branch: coprime 64-bit denominators grow the common denominator,
    # denominators of 2s and 3s mostly divide it, and zeros prune sizes: a
    # zero psi' or psi'' narrows the table of splits into 2s and 1s, and a
    # zero at a size j >= 3 drops every subtree with m_j > 0.  Every n in
    # 1..12 runs for each family, so each edge of that table comes up on
    # every run: r = 0, odd r with psi' = 0 (an empty row), psi'' = 0, and
    # n = 1, where the row of size 2 is the padding row.  The last two
    # families give phi a zero tail above a random order k < n, as an
    # expression phi of degree k has: the terms with more than k parts are
    # all zero, and the walk visits none of them.
    rng = random.Random(1020)

    def small():
        return random_rational(rng)

    def wide():
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1)

    def coprime_wide(n):
        dens = []
        while len(dens) < n:
            d = rng.getrandbits(64) | 1
            if gcd(d, prod(dens)) == 1:
                dens.append(d)
        return [Fraction(rng.getrandbits(64) - 2**63, d) for d in dens]

    def smooth():
        return Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4))

    def zeros_at(n, sizes):
        return seq(*[0 if j in sizes else random_rational(rng) or Fraction(1, 3) for j in range(1, n + 1)])

    def phi_through(n, k):
        return seq(*[small() or Fraction(1, 3) if j <= k else 0 for j in range(1, n + 1)])

    families = {
        "small": lambda n: (seq(*[small() for _ in range(n)]), seq(*[small() for _ in range(n)])),
        "64-bit": lambda n: (seq(*[wide() for _ in range(n)]), seq(*coprime_wide(n))),
        "2s and 3s": lambda n: (seq(*[smooth() for _ in range(n)]), seq(*[smooth() for _ in range(n)])),
        "psi' = 0": lambda n: (seq(*[small() for _ in range(n)]), seq(0, *[small() for _ in range(n - 1)])),
        "psi'' = 0": lambda n: (seq(*[small() for _ in range(n)]), zeros_at(n, {2})),
        "one zero at a size j >= 3": lambda n: (
            seq(*[small() for _ in range(n)]),
            zeros_at(n, {rng.randint(3, max(n, 3))}),
        ),
        "only psi' and psi'' nonzero": lambda n: (
            seq(*[small() for _ in range(n)]),
            zeros_at(n, range(3, n + 1)),
        ),
        "psi = 0": lambda n: (seq(*[small() for _ in range(n)]), seq(*[0] * n)),
        "phi = 0 above an order k < n": lambda n: (
            phi_through(n, rng.randrange(n)),
            seq(*[small() for _ in range(n)]),
        ),
        "phi = 0 above an order k < n, psi' = 0": lambda n: (
            phi_through(n, rng.randrange(n)),
            zeros_at(n, {1, rng.randint(3, max(n, 3))}),
        ),
    }
    for family, make in families.items():
        for n in [*(rng.randint(1, 20) for _ in range(30)), *range(1, 13), 30]:
            phi, psi = make(n)
            expected = partition_sum_on_fractions(phi, psi, n)
            assert derivative_partition_sum(phi, psi, n) == expected, (family, n)
            if family == "psi = 0":
                assert expected == 0
    phi, psi = families["small"](40)
    assert derivative_partition_sum(phi, psi, 40) == partition_sum_on_fractions(phi, psi, 40)


def refuse_integer_scaled_form(monkeypatch, names=("scaled", "reduced", "convolve")):
    """Make the named exact helpers raise, in exact and in composition."""

    def refuser(name):
        def refuse(*args):
            raise AssertionError(f"exact.{name} called")

        return refuse

    for name in names:
        monkeypatch.setattr(exact, name, refuser(name))
        monkeypatch.setattr(composition, name, refuser(name), raising=False)


@pytest.mark.parametrize("n", [1, 8, 20])
def test_partition_route_uses_no_integer_scaled_form(n, monkeypatch):
    # The five-way check compares independent routes: the partition sum keeps
    # its own integers and common denominators, and never reaches the
    # integer-scaled form (scaled, reduced, convolve) the others share.
    rng = random.Random(950 + n)
    phi, psi = random_sequence(rng, n), random_sequence(rng, n)
    expected = derivative_bell(phi, psi, n)
    refuse_integer_scaled_form(monkeypatch)
    with pytest.raises(AssertionError, match="exact.scaled called"):
        derivative_bell(phi, psi, n)
    assert derivative_partition_sum(phi, psi, n) == expected


@pytest.mark.parametrize("n", [1, 8, 30])
def test_bell_route_uses_only_scaled_of_the_integer_scaled_form(n, monkeypatch):
    # Each Miller step in _power_coefficient takes its content from
    # gcd(step, acc), so Bell reads psi through exact.scaled and needs neither
    # the list-wide gcd of exact.reduced nor exact.convolve.
    rng = random.Random(970 + n)
    phi, psi = random_sequence(rng, n), random_sequence(rng, n)
    expected = sum(
        (d * partial_bell_by_binomials(n, k, psi) for k, d in enumerate(phi.derivs, start=1)),
        Fraction(0),
    )
    refuse_integer_scaled_form(monkeypatch, ("reduced", "convolve"))
    assert derivative_bell(phi, psi, n) == expected


@pytest.mark.parametrize("n", [8, 40, 60, 100])
def test_bell_and_power_routes_enumerate_no_partitions(n, monkeypatch):
    # Only the partition sum may build a partition's term (pair_divisor) or
    # list the partitions, and it is out of reach at these orders.  The
    # determinant route gives the reference for general phi; for phi = x**m,
    # Lagrange's power route does.  Bell and Lagrange read [t^n] u**m from one
    # helper, _power_coefficient, so the determinant and jet routes, which
    # share none of it, back each Bell = Lagrange * n! below.
    def refuse(*args):
        raise AssertionError(f"partition terms built from {args}")

    monkeypatch.setattr(partitions, "enumerate_multiplicity_vectors", refuse)
    monkeypatch.setattr(composition, "pair_divisor", refuse)
    rng = random.Random(800 + n)
    phi, psi = random_sequence(rng, n), random_sequence(rng, n)
    # The guard sits on the name the partition sum's walk really reads, at
    # the highest order the sum accepts.
    with pytest.raises(AssertionError, match="partition terms built"):
        derivative_partition_sum(phi, psi, min(n, partitions.MAX_PARTITION_ORDER))
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


@pytest.mark.parametrize("n", [1, 8, 20])
def test_power_route_uses_only_scaled_of_the_integer_scaled_form(n, monkeypatch):
    # Lagrange reads [t^n] u**m through _power_coefficient, the helper Bell
    # reads too: it writes u over its least common denominator with
    # exact.scaled and takes its content from the gcd of each Miller step,
    # so it needs neither exact.reduced nor exact.convolve.  Its Fraction
    # oracle reads none of the three (see test_oracle_reach for a fault in
    # scaled).
    rng = random.Random(960 + n)
    psi = DerivativeSequence(derivs=random_sequence(rng, n).derivs, base=Fraction(-5, 3))
    expected = {m: power_coefficient_on_fractions(psi, m, n) for m in (-3, 2, 5)}
    refuse_integer_scaled_form(monkeypatch, ("reduced", "convolve"))
    for m, value in expected.items():
        assert lagrange_power_coefficient(psi, m, n) == value


# Orders where a gapped psi is nonzero: two adjacent orders, one order, and
# three orders with gaps of 2 and 5 between them.
GAPS = ({1, 2}, {3}, {2, 5, 11})


def test_miller_fold_equals_the_rescaling_loop_it_replaced():
    # The graded fold keeps each v_t over its own scale S_t and lifts its
    # running sum, where the loop it replaced multiplied all of V by each
    # step's factor; both form the same sum over S_{j-1}, so they return the
    # same raw (v, scale) pair for every m != 1.  m = 1 returns (W_N, W_0),
    # the same value.  W is small or 64-bit, dense, about 60 % zeros, or one
    # nonzero order past W_0; W_0 may be negative, and N = 0 is included.
    def rescaling_loop(W, m):
        V, scale = [1], 1
        m1 = m + 1
        for j in range(1, len(W)):
            acc = 0
            for i in range(1, j + 1):
                w = W[i]
                if w:
                    acc += (m1 * i - j) * w * V[j - i]
            step = j * W[0]
            c = gcd(step, acc)
            f = step // c
            if f != 1:
                for i, v in enumerate(V):
                    V[i] = v * f
                scale *= f
            V.append(acc // c)
        return V[-1], scale

    rng = random.Random(2103)
    seen = set()
    for trial in range(1500):
        bound = (8, 2**64)[trial % 2]
        N = trial % 23

        def value():
            return rng.randrange(-bound, bound)

        W = [value() or -1]
        shape = trial // 2 % 3
        if shape == 0:
            W += [value() for _ in range(N)]
        elif shape == 1:
            W += [value() if rng.random() < 0.4 else 0 for _ in range(N)]
        else:
            W += [0] * N
            if N:
                W[rng.randrange(1, N + 1)] = value() or 1
        seen.add((bound, shape, N == 0, W[0] < 0))
        for m in range(-6, 9):
            got = composition._miller_power(W, m)
            expected = rescaling_loop(W, m)
            if m == 1:
                assert Fraction(*got) == Fraction(*expected), (W, m)
            else:
                assert got == expected, (W, m)
    assert len(seen) == 24


def test_partial_bell_equals_the_binomial_recurrence():
    # Miller's power recurrence on Comtet's identity gives, at every k, the
    # values of the column recurrence with binomial weights: on small values
    # and on 64-bit numerators and denominators, with zeros among them; on psi
    # vanishing through order s = 1, 2 and 3, where the recurrence runs on the
    # shifted series and B_{n,k} = 0 once s*k > n - k; on all-zero psi; on
    # 64-bit psi with psi' = 0, and with psi' = psi'' = 0, where the lead
    # psi^(3) / 3! cancels the factor 2 or 3 that the numerator of psi^(3)
    # shares with 3!; and on odd psi with psi' < 0.  There every
    # even-order derivative is 0, so g is even, acc is 0 at every odd step,
    # gcd(step, acc) = |step| and the step multiplies by -1; B_{n,k} = 0 when
    # n - k is odd.  Up to n = 40 it also runs gapped psi, nonzero only at
    # orders {1, 2}, {3} or {2, 5, 11}, small and 64-bit: Miller's sum then
    # passes runs of orders with no term and must lift across each of them.
    rng = random.Random(2101)

    def small():
        return random_rational(rng) if rng.randrange(3) else Fraction(0)

    def wide():
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1) if rng.randrange(3) else 0

    def vanishing(s):
        return lambda n: seq(*([0] * s + [random_rational(rng) or 1 for _ in range(n - s)])[:n])

    def odd(value):
        return lambda n: seq(-abs(value() or 1), *[value() if j % 2 else 0 for j in range(2, n + 1)])

    def nonzero_small():
        return random_rational(rng) or Fraction(-1, 3)

    def nonzero_wide():
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1) or 1

    def gapped(orders, value):
        return lambda n: seq(*[value() if j in orders else 0 for j in range(1, n + 1)])

    makers = [
        lambda n: seq(*[small() for _ in range(n)]),
        lambda n: seq(*[wide() for _ in range(n)]),
        *(vanishing(s) for s in (1, 2, 3)),
        lambda n: seq(*[0] * n),
        lambda n: seq(0, *[wide() or 1 for _ in range(n - 1)]),
        lambda n: seq(*[0, 0, (2 + n % 2) * (wide() or 1), *[wide() for _ in range(n - 3)]][:n]),
    ]
    odd_makers = [odd(small), odd(wide)]
    makers += odd_makers
    gapped_makers = [gapped(orders, value) for orders in GAPS for value in (nonzero_small, nonzero_wide)]
    makers += gapped_makers
    for make in makers:
        for n in range(1, 41 if make in gapped_makers else 31):
            psi = make(n)
            for k in range(1, n + 1):
                expected = partial_bell_by_binomials(n, k, psi)
                assert partial_bell(n, k, psi) == expected, (n, k)
                if make in odd_makers and (n - k) % 2:
                    assert expected == 0, (n, k)


def test_partial_bell_at_max_order_is_the_stirling_number():
    # On psi' = psi'' = ... = 1, B_{n,k} counts the partitions of an n-set
    # into k blocks: S(n, k) from its own O(n**2) recurrence, every k at n =
    # MAX_ORDER.
    n = exact.MAX_ORDER
    ones = seq(*[1] * n)
    assert [partial_bell(n, k, ones) for k in range(1, n + 1)] == stirling_second_kind(n)[1:]


def test_power_route_equals_the_fraction_loop_it_replaced():
    # The integer recurrence over one scale gives the Fraction recurrence's
    # values for m = -4..7, on psi with zero leading terms (s > 0), a zero
    # base with m >= 0, psi vanishing through order n, and orders below
    # s * m, where both give 0.  Up to n = 30 it also runs odd psi with a
    # zero base and psi' < 0: w = u / t is even, so acc is 0 at every odd
    # step and gcd(k * d, acc) = k * d.  Up to n = 40 it runs gapped psi,
    # nonzero only at orders {1, 2}, {3} or {2, 5, 11}, small and 64-bit,
    # with a nonzero base and with a zero one (then w starts at psi's first
    # nonzero order and its own gaps are the same).
    rng = random.Random(2102)

    def wide():
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1) if rng.randrange(3) else 0

    def nonzero_wide():
        return wide() or Fraction(-(2**63) + 1, 2**64 - 1)

    cases = []
    for n in range(1, 16):
        for lead in range(3):  # psi vanishes to order `lead` at the point
            tail = [random_rational(rng) or Fraction(1, 2) for _ in range(n)]
            cases.append(seq(*([0] * lead + tail)[:n], base=random_rational(rng) if lead == 0 else 0))
            cases.append(seq(*[wide() for _ in range(n)], base=wide() or 1))
    for n in range(1, 31):
        for value in (lambda: random_rational(rng), wide):
            odd = [-abs(value() or 1), *[value() if j % 2 else 0 for j in range(2, n + 1)]]
            cases.append(seq(*odd, base=0))
    for orders in GAPS:
        for n in (*range(1, 13), 20, 40):
            for value in (lambda: random_rational(rng) or Fraction(2, 3), nonzero_wide):
                gapped = [value() if j in orders else 0 for j in range(1, n + 1)]
                cases.append(seq(*gapped, base=value()))
                cases.append(seq(*gapped, base=0))
    seen_below = 0
    for psi in cases:
        n = len(psi.derivs)
        for m in range(-4, 8):
            if psi.base == 0 and m < 0:
                with pytest.raises(ZeroDivisionError):
                    lagrange_power_coefficient(psi, m, n)
                continue
            expected = power_coefficient_on_fractions(psi, m, n)
            assert lagrange_power_coefficient(psi, m, n) == expected, (n, m)
            s = next((k for k, c in enumerate((psi.base, *psi.derivs)) if c), 0)
            if n < s * m:
                seen_below += 1
                assert expected == 0
    assert seen_below > 0


@pytest.mark.parametrize("m", [-2000, 2000])
def test_power_exponent_bounded_by_max_exponent(m):
    # The power route's integers grow with |m|; MAX_EXPONENT is the bound an
    # exponent after '^' has too, and it is accepted, one past it is refused.
    assert exact.MAX_EXPONENT == 2000
    psi = seq(Fraction(1, 3), Fraction(-2, 5), base=Fraction(3, 2))
    power = power_derivatives(m, psi.base, 2)
    expected = derivative_determinant(power, psi, 2) / 2
    assert lagrange_power_coefficient(psi, m, 2) == expected
    beyond = m + (1 if m > 0 else -1)
    with pytest.raises(ValueError, match="MAX_EXPONENT"):
        lagrange_power_coefficient(psi, beyond, 2)
    with pytest.raises(ValueError, match="MAX_EXPONENT"):
        power_derivatives(beyond, psi.base, 2)


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
    # Also when t^n is the first term of psi's series.
    assert lagrange_power_coefficient(seq(0, 0, 5, base=0), 0, 3) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_power_route_identity_exponent(n):
    rng = random.Random(700 + n)
    psi = random_sequence(rng, n)
    expected = psi.derivs[n - 1] / factorial(n)
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
    # D^k x**m = m(m-1)...(m-k+1) * x**(m-k), each factor below zero.
    assert phi_powers.derivs == tuple(
        prod(range(m, m - k, -1)) * psi.base ** (m - k) for k in range(1, n + 1)
    )
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
    # At x0 = 0 and 0 <= m < n, x**m has m! at order m and an exact 0 at every
    # order past it, where the falling factorial has a zero factor.
    for n in range(1, 13):
        for m in range(n):
            expected = seq(*[factorial(m) if k == m else 0 for k in range(1, n + 1)], base=int(m == 0))
            assert power_derivatives(m, 0, n) == expected


def test_power_route_zero_base_negative_exponent_raises():
    for psi in (seq(2, 3, base=0), seq(0, 0, base=0)):
        with pytest.raises(ZeroDivisionError):
            lagrange_power_coefficient(psi, -1, 2)
    with pytest.raises(ZeroDivisionError, match=r"x\*\*-1 is undefined at 0"):
        power_derivatives(-1, 0, 3)


def test_power_route_requires_base():
    with pytest.raises(ValueError):
        lagrange_power_coefficient(seq(1, 1), 2, 2)


# --- DerivativeSequence plumbing ------------------------------------------------

def test_sequence_coerces_to_fractions():
    s = DerivativeSequence(derivs=(1, "3/2"), base="2")
    assert s.derivs == (Fraction(1), Fraction(3, 2))
    assert s.base == Fraction(2)
    assert DerivativeSequence(v for v in [1, "3/2"]) == DerivativeSequence([1, "3/2"])


@pytest.mark.parametrize(
    "derivs",
    ["12", b"12", bytearray(b"12"), {3: "a"}, {1, 2}, frozenset({1})],
    ids=lambda v: type(v).__name__,
)
def test_sequence_rejects_text_mappings_and_sets(derivs):
    # A string is not its digits, a mapping not its keys, a set not its hash order.
    with pytest.raises(TypeError) as err:
        DerivativeSequence(derivs)
    assert str(err.value) == f"derivs must be a sequence of values, not a {type(derivs).__name__}"
