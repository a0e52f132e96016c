"""Closed-form routes for the n-th derivative of a composition phi(psi(y)).

All three routes consume plain derivative values at a point, never the
functions themselves: the caller supplies psi', psi'', ... evaluated at
the expansion point and phi', phi'', ... evaluated at psi of that point.

* ``derivative_partition_sum`` sums one exact term per integer partition
  of n (the primary closed form).
* ``derivative_bell`` regroups the same sum by the number of parts,
  through the partial Bell polynomials ``partial_bell``.
* ``lagrange_power_coefficient`` is the special case phi(x) = x**m,
  returning the n-th Taylor coefficient of psi(y)**m directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .exact import as_rational, factorial, falling_factorial, format_rational
from .partitions import (
    MultiplicityVector,
    enumerate_multiplicity_vectors,
    multinomial_weight,
    total_order,
)

__all__ = [
    "DerivativeSequence",
    "SequenceTooShortError",
    "derivative_partition_sum",
    "derivative_bell",
    "partial_bell",
    "lagrange_power_coefficient",
    "power_derivatives",
]


class SequenceTooShortError(ValueError):
    """A route asked for a derivative order the sequence does not hold."""

    def __init__(self, role: str, needed: int, available: int):
        self.role = role
        self.needed = needed
        self.available = available
        super().__init__(
            f"{role} derivative sequence too short: order {needed} requested "
            f"but only {available} derivative(s) supplied"
        )


@dataclass(frozen=True)
class DerivativeSequence:
    """Derivative values at a point: ``derivs[k-1]`` is the k-th derivative.

    ``base`` is the 0-th value (the function value itself); it is optional
    and only the power route requires it.  Values are normalized to
    ``Fraction`` on construction, so sequences built from ints or "p/q"
    strings compare structurally.
    """

    derivs: tuple[Fraction, ...]
    base: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "derivs", tuple(as_rational(v) for v in self.derivs)
        )
        if self.base is not None:
            object.__setattr__(self, "base", as_rational(self.base))

    def __len__(self) -> int:
        return len(self.derivs)

    def derivative(self, k: int) -> Fraction:
        """The k-th derivative value, k >= 1."""
        if k < 1:
            raise ValueError(f"derivative order must be >= 1, got {k}")
        return self.derivs[k - 1]

    def require_order(self, n: int, role: str) -> None:
        if len(self.derivs) < n:
            raise SequenceTooShortError(role, n, len(self.derivs))

    def require_base(self, role: str) -> Fraction:
        if self.base is None:
            raise ValueError(f"{role} sequence needs a base value (0-th derivative)")
        return self.base

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"derivs": [format_rational(v) for v in self.derivs]}
        if self.base is not None:
            data = {"base": format_rational(self.base), **data}
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DerivativeSequence":
        if not isinstance(data, dict) or "derivs" not in data:
            raise ValueError(f"derivative sequence JSON needs 'derivs': {data!r}")
        if not isinstance(data["derivs"], list):
            raise ValueError(f"'derivs' must be a list: {data['derivs']!r}")
        derivs = tuple(as_rational(v) for v in data["derivs"])
        base = as_rational(data["base"]) if "base" in data else None
        return cls(derivs=derivs, base=base)


def _partition_term(mvec: MultiplicityVector, psi: DerivativeSequence) -> Fraction:
    """multinomial weight times the psi-monomial of one partition."""
    term = multinomial_weight(mvec)
    for j, mj in mvec.parts():
        term *= psi.derivative(j) ** mj
    return term


def derivative_partition_sum(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) as the sum over integer partitions of n.

    Each partition (m_1, ..., m_n) with p parts contributes

        n! / (prod m_j! * prod (j!)**m_j) * phi^(p) * prod psi^(j)**m_j.

    The factorial denominators live in the weight, so the product uses the
    raw derivative values.
    """
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    total = Fraction(0)
    for mvec in enumerate_multiplicity_vectors(n):
        total += phi.derivative(total_order(mvec)) * _partition_term(mvec, psi)
    return total


def partial_bell(n: int, k: int, psi: DerivativeSequence) -> Fraction:
    """The partial Bell polynomial B_{n,k} evaluated at psi', psi'', ...

    Sums the partition terms with exactly k parts; only derivatives up to
    order n - k + 1 can occur, so the sequence may stop there.
    """
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"partial Bell indices out of range: n={n}, k={k}")
    psi.require_order(n - k + 1, "psi")
    total = Fraction(0)
    for mvec in enumerate_multiplicity_vectors(n):
        if total_order(mvec) == k:
            total += _partition_term(mvec, psi)
    return total


def derivative_bell(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) regrouped by outer order: sum of phi^(k) * B_{n,k}."""
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += phi.derivative(k) * partial_bell(n, k, psi)
    return total


def lagrange_power_coefficient(
    psi: DerivativeSequence, m: int, n: int
) -> Fraction:
    """D^n(psi(y)**m) / n!, the outer function specialized to x**m.

    Per partition with p parts the term is

        m(m-1)...(m-p+1) / prod m_j! * psi**(m-p) * prod (psi^(j)/j!)**m_j

    where psi is the base value.  Any integer m is accepted: for
    0 <= m < p the falling factorial vanishes and the term is skipped
    before psi**(m-p) could divide by zero.  A genuinely required
    negative power of a zero base (m < 0 with base 0) raises
    ZeroDivisionError.
    """
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    base = psi.require_base("psi")
    psi.require_order(n, "psi")
    total = Fraction(0)
    for mvec in enumerate_multiplicity_vectors(n):
        p = total_order(mvec)
        ff = falling_factorial(m, p)
        if ff == 0:
            continue
        if base == 0 and m - p < 0:
            raise ZeroDivisionError(
                f"term with {p} parts needs psi**{m - p} but the base value is 0"
            )
        term = Fraction(ff)
        for j, mj in mvec.parts():
            term /= factorial(mj)
            term *= (psi.derivative(j) / factorial(j)) ** mj
        total += term * base ** (m - p)
    return total


def power_derivatives(m: int, x0: Fraction, n: int) -> DerivativeSequence:
    """Derivative sequence of x**m at x0, orders 1..n, base included.

    The k-th derivative is m(m-1)...(m-k+1) * x0**(m-k).  Entries whose
    falling factorial vanishes are 0 outright, so a zero x0 is fine for
    m >= 0; negative m with x0 = 0 raises ZeroDivisionError.
    """
    x0 = as_rational(x0)
    if x0 == 0 and m < 0:
        raise ZeroDivisionError(f"x**{m} is undefined at 0")
    derivs = []
    for k in range(1, n + 1):
        ff = falling_factorial(m, k)
        derivs.append(ff * x0 ** (m - k) if ff else Fraction(0))
    return DerivativeSequence(derivs=tuple(derivs), base=x0**m)
