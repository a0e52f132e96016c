"""Truncated Taylor series (jet) arithmetic and composition.

A jet of order N is a ``DerivativeSequence``: ``base`` holds the value
and ``derivs[:N]`` the first N derivatives.  Composing the jets of phi
and psi gives the derivatives of the composition, which makes this
module a route-independent oracle for the closed forms in
``composition``.  Composition is Horner's scheme on derivative values,
each product by Leibniz's rule, on integers over one denominator.  Each
step multiplies that denominator only by the lcm of the inner
denominators it reads (graded denominators), and divides out its gcd
with the integers.  Each step keeps only the degrees that can still
reach the result, so the window grows by one degree per step.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import reduced
from .sequence import DerivativeSequence, SequenceTooShortError

__all__ = [
    "jet_mul",
    "jet_compose",
    "jet_from_derivatives",
    "derivative_via_jets",
]


def _require_same_order(a: DerivativeSequence, b: DerivativeSequence) -> int:
    if len(a.derivs) != len(b.derivs):
        raise ValueError(f"jet order mismatch: {len(a.derivs)} != {len(b.derivs)}")
    return len(a.derivs)


def jet_mul(a: DerivativeSequence, b: DerivativeSequence) -> DerivativeSequence:
    """Leibniz's rule (fg)^(m) = sum_i C(m, i) f^(i) g^(m-i) at the common order;
    an absent base counts as 0.  Benchmark API: ``bench/tracing.py`` looks this name up."""
    n = _require_same_order(a, b)
    f, g = [a.base or 0, *a.derivs], [b.base or 0, *b.derivs]
    h = [sum(math.comb(m, i) * f[i] * g[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return DerivativeSequence(tuple(h[1:]), h[0])


def jet_compose(outer: DerivativeSequence, inner: DerivativeSequence) -> DerivativeSequence:
    """Evaluate the jet ``outer`` at the jet ``inner`` by Horner's scheme.

    The outer derivatives are taken at the inner function's value, so the
    inner base is not read, and the composite's base is the outer one.
    With b_k = outer^(k) / k! and A^(i) = inner^(i), A^(0) = 0, the steps
    R <- R * A + b_k run on derivative values r_m / den of R: the product
    is Leibniz's rule R^(m) <- sum_i C(m, i) * R^(i) * A^(m-i), and b_k is
    added to R^(0).

    R^(m) of the product reads A^(1..m) only, so row m of the Leibniz
    table holds them over L_m, the lcm of the first m inner denominators.
    L_m divides L_(m+1), and L_n is the lcm d of all n.  The step that
    reads rows 0..t multiplies den by L_t, not by d, and lifts each row
    over a proper divisor L_m of L_t by L_t / L_m.  Each step divides r
    and den by their gcd, so no power of d builds up in them.  Because
    A^(0) = 0, each of the k products left after adding b_k raises the
    degree by at least one, so that step computes only R^(0..n-k): about
    n^3/6 Leibniz products instead of n^3/2.
    """
    r, den = _horner(outer, inner)
    return DerivativeSequence(tuple(Fraction(c, den) for c in r[1:]), outer.base)


def _horner(outer: DerivativeSequence, inner: DerivativeSequence) -> tuple[list[int], int]:
    """``jet_compose``'s loop: integers r and den, r[m] / den its m-th derivative."""
    n = _require_same_order(outer, inner)
    # grade[m] = L_m, a divisor of each later one; am holds a_1..a_m, A^(j) = a_j / L_m.
    grade, am, leibniz = [1], [], [[]]
    for m, v in enumerate(inner.derivs, 1):
        lm = math.lcm(grade[-1], v.denominator)
        if lm != grade[-1]:
            grow = lm // grade[-1]
            am = [c * grow for c in am]
        am.append(v.numerator * (lm // v.denominator))
        grade.append(lm)
        # R^(m) of R * A is r . leibniz[m] / (den * L_m); A^(0) = 0 drops i = m.
        leibniz.append([math.comb(m, i) * am[m - 1 - i] for i in range(m)])
    b = outer.taylor_coefficients(n)
    r, den = [b[n].numerator], b[n].denominator
    # width = n - k + 1: R^(0..n-k) at the step that adds b_k.
    for width, b_k in enumerate(reversed(b[:n]), 2):
        top = grade[width - 1]
        r = [sum(map(operator.mul, r, row)) for row in leibniz[:width]]
        # Lift the rows over a proper divisor of L_t = top; they come first.
        for m in range(1, width):
            if grade[m] == top:
                break
            r[m] *= top // grade[m]
        den *= top
        lift = b_k.denominator // math.gcd(den, b_k.denominator)
        if lift > 1:
            r = [c * lift for c in r]
            den *= lift
        r[0] += b_k.numerator * (den // b_k.denominator)
        r, den = reduced(r, den)
    return r, den


def jet_from_derivatives(seq: DerivativeSequence, order: int) -> DerivativeSequence:
    """The jet of order ``order``: ``seq``'s base and its first ``order`` derivatives."""
    if order < 0:
        raise ValueError(f"jet order must be non-negative, got {order}")
    if len(seq.derivs) < order:
        raise SequenceTooShortError("jet", order, len(seq.derivs))
    return DerivativeSequence(seq.derivs[:order], seq.base)


def derivative_via_jets(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)): the n-th derivative of the composed order-n jets."""
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    r, den = _horner(jet_from_derivatives(phi, n), jet_from_derivatives(psi, n))
    return Fraction(r[n], den)
