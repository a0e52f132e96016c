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
over one denominator each (``exact.scaled``, ``exact.convolve``,
``exact.reduced``), cut at degree n.  Each term b_k g^k, k = jr + i, of
a degree is one integer dot product of g^i and U^j, and the terms add
up over one running lcm of their denominators.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import convolve, reduced, scaled
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
    then one dot product of the two lists, and the term b_k times it over
    the two denominators adds to a running sum over the lcm of the
    denominators so far: one Fraction per degree, at the end.  Giant steps
    stop at the last k <= n with b_k != 0.
    """
    b = outer.taylor_coefficients(n)
    top = n
    while top and not b[top]:
        top -= 1
    r = math.isqrt(n // 2) + 1
    # g over d, from degree 1: a_i = inner^(i) * (n! / i!) / (n! * lcm of their denominators).
    xs, d = scaled(inner.derivs[:n])
    w = math.factorial(n)
    g, d = reduced([x * (w // math.factorial(i)) for i, x in enumerate(xs, 1)], d * w)
    unit = [1] + [0] * n
    baby = [(unit, 1), (g, d)]  # baby[i]: g^i from degree i and its denominator
    for i in range(2, min(r, top) + 1):
        power, den = baby[-1]
        baby.append(reduced(convolve(power, g, n + 1 - i), den * d))
    step = baby.pop() if top >= r else None  # U = g^r from degree r
    sums = [[0, 1] for _ in degrees]  # [total, common]: the sum is total / common
    giant, gden = unit, 1  # U^j from degree j*r
    for j in range(top // r + 1):
        for i, (power, pden) in enumerate(baby[: top - j * r + 1]):
            k = j * r + i
            if not b[k]:
                continue
            num, den = b[k].numerator, b[k].denominator * pden * gden
            for m, acc in zip(degrees, sums):
                e = m - k
                if e < 0:
                    continue
                dot = sum(map(operator.mul, power[: e + 1], reversed(giant[: e + 1])))
                if not dot:
                    continue
                total, common = acc
                c = math.gcd(common, den)
                if c == den:
                    acc[0] = total + num * dot * (common // den)
                else:
                    acc[0] = total * (den // c) + num * dot * (common // c)
                    acc[1] = common * (den // c)
        if (j + 1) * r <= top:
            giant, gden = reduced(convolve(giant, step[0], n + 1 - (j + 1) * r), gden * step[1])
    return [Fraction(math.factorial(m) * total, common) for m, (total, common) in zip(degrees, sums)]


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
    return _compose(phi, psi, n, (n,))[0]
