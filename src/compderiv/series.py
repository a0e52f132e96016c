"""Truncated Taylor series (jet) arithmetic and composition.

A jet of order N stores the coefficients c_0..c_N of a series truncated
at degree N, with c_k = (k-th derivative) / k!.  Composing the jets of
phi and psi and reading off n! * c_n reproduces the n-th derivative of
the composition, which makes this module a route-independent oracle for
the closed forms in ``composition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .composition import DerivativeSequence
from .exact import as_rational, factorial

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
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return Jet(tuple(out))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Evaluate ``outer`` at the jet ``inner`` by Horner's scheme.

    The inner jet must be centered (zero constant term), because the
    outer coefficients are taken about the inner function's value.
    """
    n = _require_same_order(outer, inner)
    if inner.coeffs[0] != 0:
        raise ValueError(
            f"inner jet must be centered (constant term 0), got {inner.coeffs[0]}"
        )
    result = Jet((outer.coeffs[n],) + (Fraction(0),) * n)
    for k in range(n - 1, -1, -1):
        result = jet_mul(result, inner)
        result = Jet((result.coeffs[0] + outer.coeffs[k],) + result.coeffs[1:])
    return result


def jet_from_derivatives(seq: DerivativeSequence, order: int) -> Jet:
    """Jet with c_k = k-th derivative / k!; c_0 is the base value or 0."""
    if order < 0:
        raise ValueError(f"jet order must be non-negative, got {order}")
    if len(seq.derivs) < order:
        raise ValueError(
            f"length mismatch: jet of order {order} needs {order} derivatives, "
            f"sequence has {len(seq.derivs)}"
        )
    c0 = seq.base if seq.base is not None else Fraction(0)
    return Jet(
        (c0,)
        + tuple(seq.derivs[k - 1] / factorial(k) for k in range(1, order + 1))
    )


def derivative_via_jets(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) through truncated-series composition.

    Builds the order-n jets of both inputs, centers the inner one, and
    returns n! times the degree-n coefficient of the composite.
    """
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    outer = jet_from_derivatives(DerivativeSequence(derivs=phi.derivs[:n]), n)
    inner = jet_from_derivatives(DerivativeSequence(derivs=psi.derivs[:n]), n)
    composed = jet_compose(outer, inner)
    return factorial(n) * composed.coeffs[n]
