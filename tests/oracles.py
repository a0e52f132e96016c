"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately separate from the package under test:
set partitions are enumerated recursively, partition counts come from the
pentagonal-number recurrence, and multiplicity vectors are found by
filtering a bounded product.  These double-check the fast implementations
without sharing any code with them.  The one exception is
``partition_sum_on_fractions``, the partition route's earlier arithmetic on
the same partition walk, kept to pin the integer arithmetic that replaced it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterator

from compderiv import DerivativeSequence
from compderiv.partitions import pair_divisor, partition_parts


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of a set, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def bell_number_brute(n: int) -> int:
    """Number of set partitions of an n-element set, by enumeration."""
    return sum(1 for _ in set_partitions(list(range(n))))


def block_type(partition: list[list], n: int) -> tuple[int, ...]:
    """Multiplicity vector of a set partition's block sizes."""
    m = [0] * n
    for block in partition:
        m[len(block) - 1] += 1
    return tuple(m)


def partition_type_count(n: int, m: tuple[int, ...]) -> int:
    """Number of set partitions of {1..n} whose block sizes realize m."""
    return sum(1 for sp in set_partitions(list(range(n))) if block_type(sp, n) == m)


def pentagonal_partition_counts(max_n: int) -> list[int]:
    """Integer partition counts p(0)..p(max_n) via Euler's recurrence."""
    p = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def brute_multiplicity_vectors(n: int) -> set[tuple[int, ...]]:
    """All (m_1..m_n) with sum j*m_j = n, by filtering a bounded product."""
    ranges = [range(n // j + 1) for j in range(1, n + 1)]
    return {
        m
        for m in product(*ranges)
        if sum(j * mj for j, mj in enumerate(m, start=1)) == n
    }


def composition_derivative_by_set_partitions(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n via the raw sum over set partitions: phi^(|P|) * prod psi^(|B|).

    Exponential in n, which is exactly why it is trustworthy for small n.
    """
    total = Fraction(0)
    for sp in set_partitions(list(range(n))):
        term = phi.derivative(len(sp))
        for block in sp:
            term *= psi.derivative(len(block))
        total += term
    return total


def partition_sum_on_fractions(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) as the partition sum, one Fraction product per pair.

    sums[p] adds the products of the pair factors psi^(j)**m_j / (m_j! *
    (j!)**m_j) over the partitions with p parts, and the answer is n! * sum_p
    phi^(p) * sums[p].  Exact at any size, and slower than the integer loop.
    """
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    factors: dict[tuple[int, int], Fraction] = {}
    sums = [Fraction(0)] * (n + 1)
    stack = [(Fraction(1), 0)]  # stack[i]: product and parts of the first i pairs
    for keep, parts in partition_parts(n):
        del stack[keep + 1 :]
        product, p = stack[-1]
        for j, mj in parts[keep:]:
            factor = factors.get((j, mj))
            if factor is None:
                # One normalisation, where a power and then a division make two.
                d = psi.derivative(j)
                factor = Fraction(d.numerator**mj, d.denominator**mj * pair_divisor(j, mj))
                factors[j, mj] = factor
            if product:  # a zero prefix stays zero
                product *= factor
            p += mj
            stack.append((product, p))
        if product:
            sums[p] += product
    total = sum((phi.derivative(p) * s for p, s in enumerate(sums) if s), Fraction(0))
    return math.factorial(n) * total


def random_rational(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_sequence(
    rng: random.Random, n: int, with_base: bool = True
) -> DerivativeSequence:
    return DerivativeSequence(
        derivs=tuple(random_rational(rng) for _ in range(n)),
        base=random_rational(rng) if with_base else None,
    )
