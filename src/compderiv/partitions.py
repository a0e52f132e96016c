"""Integer partitions of n as one streaming walk, and the exact multinomial
weight each partition contributes to the n-th derivative of a composition.

A partition is walked as (size j, multiplicity m_j) pairs, sum(j * m_j) = n, and
stored as (m_1, ..., m_n) in ``MultiplicityVector``; p = sum(m_j) is the outer order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "MAX_PARTITION_ORDER",
    "MultiplicityVector",
    "partition_parts",
    "pair_divisor",
    "partition_weight",
    "enumerate_multiplicity_vectors",
    "multinomial_weight",
]

# Highest order the walk accepts, a bound on its time: p(60) = 966,467 partitions
# take a few seconds, p(100) is about 1.9e8 and would take many minutes.
MAX_PARTITION_ORDER = 60


@dataclass(frozen=True)
class MultiplicityVector:
    """One partition of ``n``: ``m[j-1]`` parts of size ``j``, for j = 1..n.
    Benchmark API: ``bench/tracing.py`` looks this name up."""

    n: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"partition order must be positive, got n={self.n}")
        m = tuple(int(v) for v in self.m)
        object.__setattr__(self, "m", m)
        weighted = sum(j * mj for j, mj in enumerate(m, start=1))
        if len(m) != self.n or any(v < 0 for v in m) or weighted != self.n:
            raise ValueError(f"not a multiplicity vector of n={self.n}: m={m}")

    def parts(self) -> list[tuple[int, int]]:
        """The nonzero (size, multiplicity) pairs, smallest size first."""
        return [(j, mj) for j, mj in enumerate(self.m, start=1) if mj > 0]


def partition_parts(n: int) -> Iterator[list[tuple[int, int]]]:
    """Walk the partitions of ``n`` as (size, multiplicity) pairs, largest size first.

    The order is lexicographically decreasing in (m_n, ..., m_1), from [(n, 1)]
    to [(1, n)].  Each step is Zoghbi and Stojmenovic's ZS1 successor (1998) on
    one list, rewritten in place and valid until the next step, so memory is
    O(n).  Orders above ``MAX_PARTITION_ORDER`` raise ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"partition order must be positive, got n={n}")
    if n > MAX_PARTITION_ORDER:
        raise ValueError(f"partition order {n} > MAX_PARTITION_ORDER = {MAX_PARTITION_ORDER}")
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


def enumerate_multiplicity_vectors(n: int) -> list[MultiplicityVector]:
    """All multiplicity vectors of order ``n``, in the order of ``partition_parts``.
    Benchmark API: ``bench/tracing.py`` looks this name up."""
    vectors = []
    for parts in partition_parts(n):
        m = [0] * n
        for j, mj in parts:
            m[j - 1] = mj
        vectors.append(MultiplicityVector(n=n, m=tuple(m)))
    return vectors


def pair_divisor(j: int, mj: int) -> int:
    """m_j! * (j!)**m_j: what the m_j parts of size j divide the weight's n! by."""
    return math.factorial(mj) * math.factorial(j) ** mj


def partition_weight(n: int, parts: Iterable[tuple[int, int]]) -> int:
    """n! // prod pair_divisor(j, m_j): the set partitions with m_j blocks of size j."""
    denominator = 1
    for j, mj in parts:
        denominator *= pair_divisor(j, mj)
    return math.factorial(n) // denominator


def multinomial_weight(mvec: MultiplicityVector) -> Fraction:
    """``partition_weight`` of ``mvec``, as a Fraction.
    Benchmark API: ``bench/tracing.py`` looks this name up."""
    return Fraction(partition_weight(mvec.n, mvec.parts()))
