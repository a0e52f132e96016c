"""Acceptance suite: every criterion at its stated tolerance.

All numeric comparisons are bit-exact (tolerance zero); there is no
floating point anywhere in the computation.  Each test prints one
PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

from __future__ import annotations

import contextlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from compderiv import (
    DerivativeSequence,
    build_matrix,
    derivative_bell,
    derivative_determinant,
    derivative_partition_sum,
    derivative_via_jets,
    determinant_expand,
    enumerate_multiplicity_vectors,
    interpret_phi_polynomial,
    lagrange_power_coefficient,
    nth_derivative_of_composition,
    power_derivatives,
    taylor_polynomial,
)
from compderiv.determinant import PhiPolynomial
from oracles import (
    bell_number_brute,
    pentagonal_partition_counts,
    random_rational,
    random_sequence,
)


@contextlib.contextmanager
def criterion(name: str):
    """Print the criterion's PASS/FAIL line; a note appended to the
    yielded list is printed after PASS in parentheses."""
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    suffix = f" ({'; '.join(notes)})" if notes else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_five_way_route_agreement():
    # partition = Bell = determinant = series = symbolic, exactly, for
    # n = 1..12 (determinant from order 2) on 200 random pairs per order.
    with criterion("five-way route agreement (n=1..12, 200 pairs/order, exact)") as notes:
        rng = random.Random(20260810)
        started = time.monotonic()
        for n in range(1, 13):
            for _ in range(200):
                at = random_rational(rng)
                psi = random_sequence(rng, n)
                phi = random_sequence(rng, n)
                reference = derivative_partition_sum(phi, psi, n)
                assert derivative_bell(phi, psi, n) == reference
                assert derivative_via_jets(phi, psi, n) == reference
                symbolic = nth_derivative_of_composition(
                    taylor_polynomial(phi, psi.base),
                    taylor_polynomial(psi, at),
                    n,
                    at,
                )
                assert symbolic == reference
                if n >= 2:
                    assert derivative_determinant(phi, psi, n) == reference
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"five-way sweep took {elapsed:.1f}s, budget is 60s"
        notes.append(f"{elapsed:.1f} s of 60 s")


def test_second_order_determinant_example():
    # The 3x3 matrix printed for n=2, entry for entry, and its interpreted
    # expansion against the partition route on 50 random inputs.
    with criterion("n=2 determinant example (3x3 entries + 50 random expansions)"):
        p1, p2, p3 = Fraction(2), Fraction(1), Fraction(1)
        matrix = build_matrix(DerivativeSequence(derivs=(p1, p2, p3)), 2)
        T = PhiPolynomial.monomial
        expected = [
            [T(1, p3), T(1, p1), T(1, 2 * p2)],
            [T(1, p2), PhiPolynomial.constant(-1), T(1, p1)],
            [T(1, p1), PhiPolynomial.zero(), PhiPolynomial.constant(-1)],
        ]
        for r in range(1, 4):
            for c in range(1, 4):
                assert matrix.entry(r, c) == expected[r - 1][c - 1]

        rng = random.Random(555)
        for _ in range(50):
            phi = random_sequence(rng, 3)
            psi = random_sequence(rng, 3)
            expanded = determinant_expand(build_matrix(psi, 2))
            interpreted = interpret_phi_polynomial(expanded, phi)
            assert interpreted == derivative_partition_sum(phi, psi, 3)


def test_bell_numbers_against_brute_force():
    with criterion("Bell numbers 1..8 vs set-partition brute force"):
        expected = [1, 2, 5, 15, 52, 203, 877, 4140]
        for n, value in enumerate(expected, start=1):
            assert bell_number_brute(n) == value
            ones = DerivativeSequence(derivs=(Fraction(1),) * n)
            assert derivative_partition_sum(ones, ones, n) == value
            assert derivative_bell(ones, ones, n) == value


def test_partition_counts_against_recurrence():
    with criterion("partition counts 1..20 vs pentagonal recurrence"):
        counts = pentagonal_partition_counts(20)
        assert counts[10] == 42 and counts[20] == 627
        for n in range(1, 21):
            assert len(enumerate_multiplicity_vectors(n)) == counts[n]


def test_power_special_case_matches_general_route():
    with criterion("power special case * n! == general route (m=1..6, n=1..8)"):
        rng = random.Random(777)
        for m in range(1, 7):
            for n in range(1, 9):
                for _ in range(5):
                    psi = random_sequence(rng, n)
                    phi_powers = power_derivatives(m, psi.base, n)
                    general = derivative_partition_sum(phi_powers, psi, n)
                    special = lagrange_power_coefficient(psi, m, n)
                    assert special * factorial(n) == general


def test_scaling_law():
    # Replacing psi^(j) by lambda^j psi^(j) scales the order-n result by
    # exactly lambda^n, because every partition weights j by m_j.
    with criterion("scaling law (20 random lambda/inputs per order, n<=10)"):
        rng = random.Random(888)
        for n in range(1, 11):
            for _ in range(20):
                lam = random_rational(rng)
                phi = random_sequence(rng, n)
                psi = random_sequence(rng, n)
                scaled = DerivativeSequence(
                    derivs=tuple(
                        lam**j * v for j, v in enumerate(psi.derivs, start=1)
                    )
                )
                assert derivative_partition_sum(
                    phi, scaled, n
                ) == lam**n * derivative_partition_sum(phi, psi, n)


def test_cli_contract():
    with criterion("CLI contract (check exits 0; expand -n 4 byte-stable)"):
        check = subprocess.run(
            [sys.executable, "-m", "compderiv", "check",
             "--max-n", "8", "--trials", "100", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert check.returncode == 0, check.stderr
        assert "all routes agree" in check.stdout

        runs = [
            subprocess.run(
                [sys.executable, "-m", "compderiv", "expand", "-n", "4"],
                capture_output=True,
                timeout=60,
            )
            for _ in range(2)
        ]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout.splitlines()) == 5
