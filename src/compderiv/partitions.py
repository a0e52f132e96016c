"""Integer partitions of n as one streaming walk, and the exact multinomial
weight each partition contributes to the n-th derivative of a composition.

A partition is walked as (size j, multiplicity m_j) pairs, sum(j * m_j) = n, and
written as its multiplicity vector, the tuple (m_1, ..., m_n), by
``multiplicity_vector``; p = sum(m_j) is the outer order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "MAX_PARTITION_ORDER",
    "partition_parts",
    "multiplicity_vector",
    "pair_divisor",
    "partition_weight",
    "enumerate_multiplicity_vectors",
    "multinomial_weight",
]

# Highest order the walk accepts, a bound on its time: p(60) = 966,467 partitions
# take a few seconds, p(100) is about 1.9e8 and would take many minutes.
MAX_PARTITION_ORDER = 60


def partition_parts(n: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Walk the partitions of ``n`` as (size, multiplicity) pairs, largest size first.

    The order is lexicographically decreasing in (m_n, ..., m_1), from [(n, 1)]
    to [(1, n)].  Each step is Zoghbi and Stojmenovic's ZS1 successor (1998) on
    one list, rewritten in place and valid until the next step, so memory is
    O(n).  It yields ``(kept, parts)``, ``parts[:kept]`` being the pairs the step
    left as they were.  Orders above ``MAX_PARTITION_ORDER`` raise ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"partition order must be positive, got n={n}")
    if n > MAX_PARTITION_ORDER:
        raise ValueError(f"partition order {n} > MAX_PARTITION_ORDER = {MAX_PARTITION_ORDER}")
    kept, parts = 0, [(n, 1)]
    while True:
        yield kept, parts
        ones = parts.pop()[1] if parts[-1][0] == 1 else 0
        if not parts:
            return
        # One part of the smallest size k > 1, plus the ones, refilled greedily below k.
        k, c = parts.pop()
        kept = len(parts)
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
    return [multiplicity_vector(n, parts) for _, parts in partition_parts(n)]


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
    Raises ``ValueError`` unless n >= 1, no m_j is negative and sum(j * m_j) = n.
    Benchmark API: ``bench/tracing.py`` looks this name up."""
    n = len(m)
    if n < 1 or min(m) < 0 or sum(j * mj for j, mj in enumerate(m, start=1)) != n:
        raise ValueError(f"not a multiplicity vector of n={n}: m={m}")
    return Fraction(partition_weight(n, enumerate(m, start=1)))
