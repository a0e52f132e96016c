"""Truncated Taylor series (jet) arithmetic and composition.

A jet of order N is a ``DerivativeSequence``: ``base`` holds the value
and ``derivs[:N]`` the first N derivatives.  Composing the jets of phi
and psi gives the derivatives of the composition, which makes this
module a route-independent oracle for the closed forms in
``composition``.  Composition sums b_k g^k, b_k = phi^(k) / k! and g the
centered Taylor series of psi, by Paterson and Stockmeyer's baby steps
and giant steps (SIAM J. Comput. 2(1), 1973), as Brent and Kung apply
them to series composition (JACM 25(4), 1978, section 2): the baby
powers g^0..g^(r-1) and the giant powers U^j of U = g^r, on integers
over one denominator each (``exact.taylor_scaled``, ``exact.convolve``,
``exact.reduced``), cut at degree n.  Each term b_k g^k, k = jr + i, of
a degree is one integer dot product of g^i and U^j, and
``exact.rational_sum`` adds a degree's terms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import check_int, convolve, rational_sum, reduced, taylor_scaled
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
    """Evaluate the jet ``outer`` at the jet ``inner``: every degree of ``_compose``.

    The outer derivatives are taken at the inner function's value, so the
    inner base is not read, and the composite's base is the outer one.
    """
    n = _require_same_order(outer, inner)
    return DerivativeSequence(tuple(_compose(outer, inner, n, range(1, n + 1))), outer.base)


def _compose(
    outer: DerivativeSequence, inner: DerivativeSequence, n: int, degrees: range | tuple[int, ...]
) -> list[Fraction]:
    """m! [t^m] sum_k b_k g^k for each m in ``degrees`` (1 <= m <= n), by baby and giant steps.

    b_k = outer^(k) / k! and g = sum_(i >= 1) a_i t^i, a_i = inner^(i) / i!,
    read up to order n.  With r = isqrt(n // 2) + 1, a fixed function of n,
    write k = j*r + i with 0 <= i < r.  The baby powers g^0..g^(r-1) and the
    giant powers U^j of U = g^r are integer lists over one denominator each,
    cut at degree n.  Since g has no constant term, g^i has no term below
    t^i and U^j none below t^(jr), so each list starts there: the product
    that makes U^(j+1) computes degrees (j+1)r..n only.  [t^m](g^i U^j) is
    then one dot product of the two lists, and ``exact.rational_sum`` adds
    m! b_k times it over m's k as integer pairs: the numerator of outer^(k)
    times m! / k! times the dot product, over the denominator of outer^(k)
    times those of the two lists.  Giant steps stop at the last k <= n with
    b_k != 0.
    """
    phis = outer.derivs  # b_k = phis[k-1] / k!, read as integers; b_0 adds to no degree >= 1
    top = n
    while top and not phis[top - 1]:
        top -= 1
    r = math.isqrt(n // 2) + 1
    g, d = reduced(*taylor_scaled(inner.derivs[:n], 1))  # g over d, from degree 1
    unit = [1] + [0] * n
    baby = [(unit, 1), (g, d)]  # baby[i]: g^i from degree i and its denominator
    for i in range(2, min(r, top) + 1):
        power, den = baby[-1]
        baby.append(reduced(convolve(power, g, n + 1 - i), den * d))
    step, sden = baby.pop() if top >= r else (unit, 1)  # U = g^r from degree r, read if top >= r
    giants = [(unit, 1)]  # giants[j]: U^j from degree j*r and its denominator
    while len(giants) * r <= top:
        giant, gden = giants[-1]
        giants.append(reduced(convolve(giant, step, n + 1 - len(giants) * r), gden * sden))

    def terms(m: int):
        for k in range(1, min(m, top) + 1):
            if phis[k - 1]:
                (power, pden), (giant, gden) = baby[k % r], giants[k // r]
                dot = sum(map(operator.mul, power[: m - k + 1], reversed(giant[: m - k + 1])))
                lift = math.factorial(m) // math.factorial(k)
                yield phis[k - 1].numerator * lift * dot, phis[k - 1].denominator * pden * gden

    return [rational_sum(terms(m)) for m in degrees]


def jet_from_derivatives(seq: DerivativeSequence, order: int) -> DerivativeSequence:
    """The jet of order ``order``: ``seq``'s base and its first ``order`` derivatives."""
    check_int(order, "jet order", 0)
    if len(seq.derivs) < order:
        raise SequenceTooShortError("jet", order, len(seq.derivs))
    return DerivativeSequence(seq.derivs[:order], seq.base)


def derivative_via_jets(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)): the n-th derivative of the composed order-n jets."""
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    return _compose(phi, psi, n, (n,))[0]
