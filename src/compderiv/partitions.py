"""Integer partitions of n in multiplicity-vector form, and the exact
multinomial weight each partition contributes to the n-th derivative of a
composition.

A partition of n is stored as the vector (m_1, ..., m_n) where m_j counts
the parts of size j, so that sum(j * m_j) = n.  The number of parts is
p = sum(m_j); it becomes the derivation order of the outer function in
the composition formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import factorial

__all__ = [
    "MultiplicityVector",
    "enumerate_multiplicity_vectors",
    "total_order",
    "multinomial_weight",
]


@dataclass(frozen=True)
class MultiplicityVector:
    """One partition of ``n``: ``m[j-1]`` parts of size ``j``, for j = 1..n."""

    n: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"partition order must be positive, got n={self.n}")
        m = tuple(int(v) for v in self.m)
        object.__setattr__(self, "m", m)
        if len(m) != self.n:
            raise ValueError(
                f"multiplicity vector must have length n={self.n}, got {len(m)}"
            )
        if any(v < 0 for v in m):
            raise ValueError(f"multiplicities must be non-negative: {m}")
        weighted = sum(j * mj for j, mj in enumerate(m, start=1))
        if weighted != self.n:
            raise ValueError(
                f"sum of j*m_j must equal n={self.n}, got {weighted} for m={m}"
            )

    def parts(self) -> list[tuple[int, int]]:
        """The nonzero (size, multiplicity) pairs, smallest size first."""
        return [(j, mj) for j, mj in enumerate(self.m, start=1) if mj > 0]


def enumerate_multiplicity_vectors(n: int) -> list[MultiplicityVector]:
    """All multiplicity vectors of order ``n`` in canonical order.

    The order is lexicographically decreasing in (m_n, ..., m_1): the
    single-part partition comes first and the all-ones partition last.
    Enumeration recurses on the largest part size, so the work is
    proportional to the number of partitions, not to any hypercube.
    """
    if n < 1:
        raise ValueError(f"partition order must be positive, got n={n}")
    return list(_vectors(n))


@lru_cache(maxsize=64)
def _vectors(n: int) -> tuple[MultiplicityVector, ...]:
    out: list[MultiplicityVector] = []
    counts = [0] * n

    def descend(remaining: int, j: int) -> None:
        if j == 1:
            counts[0] = remaining
            out.append(MultiplicityVector(n=n, m=tuple(counts)))
            counts[0] = 0
            return
        for c in range(remaining // j, -1, -1):
            counts[j - 1] = c
            descend(remaining - c * j, j - 1)
        counts[j - 1] = 0

    descend(n, n)
    return tuple(out)


def total_order(mvec: MultiplicityVector) -> int:
    """The number of parts p = sum(m_j); the outer derivation order."""
    return sum(mvec.m)


def multinomial_weight(mvec: MultiplicityVector) -> Fraction:
    """The exact coefficient n! / (prod m_j! * prod (j!)**m_j).

    Counts the set partitions of an n-element set whose block sizes
    realize ``mvec``; it is therefore always a positive integer, even
    though it is computed as a ratio.
    """
    denominator = 1
    for j, mj in enumerate(mvec.m, start=1):
        if mj:
            denominator *= factorial(mj) * factorial(j) ** mj
    return Fraction(factorial(mvec.n), denominator)
