"""Integer partitions of n as one streaming walk, and the exact multinomial
weight each partition contributes to the n-th derivative of a composition.

A partition is walked as (size j, multiplicity m_j) pairs, sum(j * m_j) = n, and
written as its multiplicity vector, the tuple (m_1, ..., m_n), by
``multiplicity_vector``; p = sum(m_j) is the outer order.  The walk lists
partitions for ``expand``; the partition sum walks sizes on its own stack, and
both check the order with ``check_partition_order``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .exact import check_int

__all__ = [
    "MAX_PARTITION_ORDER",
    "check_partition_order",
    "partition_parts",
    "multiplicity_vector",
    "pair_divisor",
    "partition_weight",
    "enumerate_multiplicity_vectors",
    "multinomial_weight",
]

# Highest order the partition sum and the walk accept, a time bound on small values
# only: the sum over p(60) = 966,467 partitions takes 0.63-0.71 s on a 2-vCPU host, but
# 19.5 s on nonzero 64-bit JSON values (ROADMAP items 2 and 3); ``expand`` prints them
# in about 26 s; p(100) is about 1.9e8 and would take many minutes.
MAX_PARTITION_ORDER = 60


def check_partition_order(n: int) -> None:
    """Raise TypeError unless n is an int, ValueError unless 1 <= n <= MAX_PARTITION_ORDER."""
    check_int(n, "partition order", 1, ("MAX_PARTITION_ORDER", MAX_PARTITION_ORDER))


def partition_parts(n: int) -> Iterator[list[tuple[int, int]]]:
    """Walk the partitions of ``n`` as (size, multiplicity) pairs, largest size first.

    The order is lexicographically decreasing in (m_n, ..., m_1), from [(n, 1)]
    to [(1, n)].  Each step is Zoghbi and Stojmenovic's ZS1 successor (1998) on
    one list, rewritten in place and valid until the next step, so memory is
    O(n).  It yields that list.  ``check_partition_order`` bounds ``n``.
    """
    check_partition_order(n)
    parts = [(n, 1)]
    while True:
        yield parts
        ones = parts.pop()[1] if parts[-1][0] == 1 else 0
        if not parts:
            return
        # One part of the smallest size k > 1, plus the ones, refilled greedily below k.
        k, c = parts.pop()
        if c > 1:
            parts.append((k, c - 1))
        q, r = divmod(k + ones, k - 1)
        parts.append((k - 1, q))
        if r:
            parts.append((r, 1))


def multiplicity_vector(n: int, parts: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """(m_1, ..., m_n) of the partition of ``n`` with these (size j, m_j) pairs."""
    m = [0] * n
    for j, mj in parts:
        m[j - 1] = mj
    return tuple(m)


def enumerate_multiplicity_vectors(n: int) -> list[tuple[int, ...]]:
    """All multiplicity vectors of order ``n``, in the order of ``partition_parts``.
    Benchmark API: ``bench/tracing.py`` looks this name up."""
    return [multiplicity_vector(n, parts) for parts in partition_parts(n)]


def pair_divisor(j: int, mj: int) -> int:
    """m_j! * (j!)**m_j: what the m_j parts of size j divide the weight's n! by."""
    return math.factorial(mj) * math.factorial(j) ** mj


def partition_weight(n: int, parts: Iterable[tuple[int, int]]) -> int:
    """n! // prod pair_divisor(j, m_j): the set partitions with m_j blocks of size j."""
    denominator = 1
    for j, mj in parts:
        denominator *= pair_divisor(j, mj)
    return math.factorial(n) // denominator


def multinomial_weight(m: tuple[int, ...]) -> Fraction:
    """``partition_weight`` of the multiplicity vector ``m`` of n = len(m), as a Fraction.
    Raises ``TypeError`` unless each m_j is an int, ``ValueError`` unless n >= 1, no m_j is
    negative and sum(j * m_j) = n.  Benchmark API: ``bench/tracing.py`` looks this name up."""
    n = len(m)
    for mj in m:
        check_int(mj, "multiplicity", 0)
    if n < 1 or sum(j * mj for j, mj in enumerate(m, start=1)) != n:
        raise ValueError(f"not a multiplicity vector of n={n}: m={m}")
    return Fraction(partition_weight(n, enumerate(m, start=1)))
