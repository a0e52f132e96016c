"""Truncated Taylor series (jet) arithmetic and composition.

A jet of order N stores the coefficients c_0..c_N of a series truncated
at degree N, with c_k = (k-th derivative) / k!.  Composing the jets of
phi and psi and reading off n! * c_n reproduces the n-th derivative of
the composition, which makes this module a route-independent oracle for
the closed forms in ``composition``.  Composition runs on the jets'
integer-scaled form (``exact.scaled``) and reduces once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .composition import DerivativeSequence
from .exact import as_rational, convolve, factorial, scaled

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
    outer coefficients are taken about the inner function's value.  With
    inner = a / d and outer = b / e, the partial result after j steps is
    r / (e * d**j): each step convolves r with a and adds b_k * d**j to r_0.
    """
    n = _require_same_order(outer, inner)
    if inner.coeffs[0] != 0:
        raise ValueError(
            f"inner jet must be centered (constant term 0), got {inner.coeffs[0]}"
        )
    a, d = scaled(inner.coeffs)
    b, e = scaled(outer.coeffs)
    r = [b[n]] + [0] * n
    d_power = 1
    for k in range(n - 1, -1, -1):
        d_power *= d
        r = convolve(r, a, n + 1)
        r[0] += b[k] * d_power
    denominator = e * d_power
    return Jet(tuple(Fraction(c, denominator) for c in r))


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
