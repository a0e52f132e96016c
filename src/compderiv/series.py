"""Truncated Taylor series (jet) arithmetic and composition.

A jet of order N stores the coefficients c_0..c_N of a series truncated
at degree N, with c_k = (k-th derivative) / k!.  Composing the jets of
phi and psi and reading off n! * c_n reproduces the n-th derivative of
the composition, which makes this module a route-independent oracle for
the closed forms in ``composition``.  Composition is Horner's scheme on
derivative values, each product by Leibniz's rule, over integers with a
common denominator (``exact.scaled``) that loses its gcd with them after
every step.  Each step keeps only the degrees that can still reach the
result, so the window grows by one degree per step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .composition import DerivativeSequence
from .exact import as_rational, convolve, reduced, scaled

__all__ = [
    "Jet",
    "jet_mul",
    "jet_compose",
    "jet_from_derivatives",
    "derivative_via_jets",
]


@dataclass(frozen=True)
class Jet:
    """Coefficients c_0..c_N of a series truncated at degree N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a jet needs at least the degree-0 coefficient")
        object.__setattr__(
            self, "coeffs", tuple(as_rational(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _require_same_order(a: Jet, b: Jet) -> int:
    if a.order != b.order:
        raise ValueError(f"jet order mismatch: {a.order} != {b.order}")
    return a.order


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common order."""
    n = _require_same_order(a, b)
    return Jet(tuple(convolve(a.coeffs, b.coeffs, n + 1)))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Evaluate ``outer`` at the jet ``inner`` by Horner's scheme.

    The inner jet must be centered (zero constant term), because the
    outer coefficients are taken about the inner function's value.  The
    steps R <- R * A + b_k run on derivative values r_m / den of R and
    A^(i) = i! * inner_i = a_i / d: the product is Leibniz's rule
    R^(m) <- sum_i C(m, i) * R^(i) * A^(m-i), and b_k is added to R^(0).
    Each step divides r and den by their gcd, so neither d**j nor a
    factorial builds up in them; the composite's m-th value is divided by
    m! at the end.  Because a_0 = 0, each of the k products left after
    adding b_k raises the degree by at least one, so that step computes
    only R^(0..n-k): about n^3/6 Leibniz products instead of n^3/2.
    """
    n = _require_same_order(outer, inner)
    if inner.coeffs[0] != 0:
        raise ValueError(
            f"inner jet must be centered (constant term 0), got {inner.coeffs[0]}"
        )
    # The derivative values i! * inner_i over their least common denominator.
    a, d = scaled(inner.coeffs)
    a, d = reduced([math.factorial(i) * x for i, x in enumerate(a)], d)
    # R^(m) of R * A is r . leibniz[m] / (den * d); a_0 = 0 drops i = m.
    leibniz = [[math.comb(m, i) * a[m - i] for i in range(m)] for m in range(n + 1)]
    b = outer.coeffs
    r, den = [b[n].numerator], b[n].denominator
    # width = n - k + 1: R^(0..n-k) at the step that adds b_k.
    for width, b_k in enumerate(reversed(b[:n]), 2):
        r = [sum(map(operator.mul, r, row)) for row in leibniz[:width]]
        den *= d
        lift = b_k.denominator // math.gcd(den, b_k.denominator)
        if lift > 1:
            r = [c * lift for c in r]
            den *= lift
        r[0] += b_k.numerator * (den // b_k.denominator)
        r, den = reduced(r, den)
    return Jet(tuple(Fraction(c, den * math.factorial(m)) for m, c in enumerate(r)))


def jet_from_derivatives(seq: DerivativeSequence, order: int) -> Jet:
    """Jet with c_k = k-th derivative / k!; c_0 is the base value or 0."""
    if order < 0:
        raise ValueError(f"jet order must be non-negative, got {order}")
    if len(seq.derivs) < order:
        raise ValueError(
            f"length mismatch: jet of order {order} needs {order} derivatives, "
            f"sequence has {len(seq.derivs)}"
        )
    return Jet(tuple(seq.taylor_coefficients(order)))


def derivative_via_jets(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) through truncated-series composition.

    Builds the order-n jets of both inputs, centers the inner one, and
    returns n! times the degree-n coefficient of the composite.
    """
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    outer = jet_from_derivatives(DerivativeSequence(derivs=phi.derivs[:n]), n)
    inner = jet_from_derivatives(DerivativeSequence(derivs=psi.derivs[:n]), n)
    composed = jet_compose(outer, inner)
    return math.factorial(n) * composed.coeffs[n]
