"""Closed-form routes for the n-th derivative of a composition phi(psi(y)).

All three routes consume plain derivative values at a point, never the
functions themselves: the caller supplies psi', psi'', ... evaluated at
the expansion point and phi', phi'', ... evaluated at psi of that point.

* ``derivative_partition_sum`` sums one exact term per integer partition
  of n (the primary closed form) on integers: integer weights over the
  walk's prefixes, one running common denominator per outer order p.
* ``derivative_bell`` sums phi^(k) * B_{n,k} over the k where phi^(k) != 0;
  ``partial_bell`` gets B_{n,k} from Comtet's identity as integer dot
  products, one power of a series at a time, without partitions.
* ``lagrange_power_coefficient`` is the special case phi(x) = x**m: the
  n-th Taylor coefficient of psi(y)**m by J.C.P. Miller's recurrence, on
  integers over one scale that it keeps itself, |m| <= MAX_EXPONENT.

The input type, ``DerivativeSequence``, lives in ``sequence``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import as_rational, check_exponent, check_order, falling_factorial, reduced, scaled
from .partitions import pair_divisor, partition_parts
from .sequence import DerivativeSequence, SequenceTooShortError  # both still resolve here

__all__ = [
    "derivative_partition_sum",
    "derivative_bell",
    "partial_bell",
    "lagrange_power_coefficient",
    "power_derivatives",
]


def derivative_partition_sum(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) as the sum over integer partitions of n.

    Each partition (m_1, ..., m_n) with p parts contributes

        n! / (prod m_j! * prod (j!)**m_j) * phi^(p) * prod psi^(j)**m_j,

    and the sum runs on integers.  With psi^(j) = a_j / b_j, a stack over the
    walk's leading pairs holds (num, den, p): num = n! / prod pair_divisor(j,
    m_j) * prod a_j**m_j and den = prod b_j**m_j, starting at (n!, 1, 0).  Each
    pair's three integers are computed once per call.  The floor division by
    pair_divisor is exact at every prefix: its sizes sum to some m <= n, and
    n! / prod divisors = (n! / m!) * (m! / prod divisors) is an integer.  The
    walk says how many leading pairs each step kept, so the stack keeps what
    the step left alone, and a zero prefix is not multiplied further.  The
    terms with p parts add up to nums[p] / dens[p], dens[p] the running lcm of
    their denominators, unreduced until the last step:
    sum_p phi^(p) * nums[p] / dens[p].
    """
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    pairs: dict[tuple[int, int], tuple[int, int, int]] = {}
    nums, dens = [0] * (n + 1), [1] * (n + 1)
    stack = [(math.factorial(n), 1, 0)]  # stack[i]: num, den and parts of the first i pairs
    for keep, parts in partition_parts(n):
        del stack[keep + 1 :]
        num, den, p = stack[-1]
        for j, mj in parts[keep:]:
            if num:  # a zero prefix stays zero
                pair = pairs.get((j, mj))
                if pair is None:
                    d = psi.derivative(j)
                    pair = pairs[j, mj] = (pair_divisor(j, mj), d.numerator**mj, d.denominator**mj)
                divisor, top, bottom = pair
                num = num // divisor * top
                den *= bottom
            p += mj
            stack.append((num, den, p))
        if num:
            common = dens[p]
            g = math.gcd(common, den)
            if g == den:
                nums[p] += num * (common // den)
            else:
                scale = den // g
                nums[p] = nums[p] * scale + num * (common // g)
                dens[p] = common * scale
    outer = zip(phi.derivs, nums[1:], dens[1:])
    return sum((d * Fraction(a, b) for d, a, b in outer if a and d), Fraction(0))


def partial_bell(n: int, k: int, psi: DerivativeSequence) -> Fraction:
    """The partial Bell polynomial B_{n,k} evaluated at psi', psi'', ...

    Comtet's identity (Advanced Combinatorics, 1974, section 3.3) on
    x_i = psi^(i): B_{n,k} = n!/k! * [t^n] (sum_i x_i t^i / i!)**k, the
    k-th power of g(t) = sum_{i=1}^{w} x_i t^(i-1) / i! read at t^(n-k),
    w = n - k + 1.  It needs psi up to order w only, and runs over
    integers: with x_i = a_i / D in the integer-scaled form of
    ``exact.scaled``, g's coefficients are a_i * (w! / i!) over D * w!, each
    power of g is w integers over one scale, and a step is w dot products
    with g's coefficients reversed.  ``exact.reduced`` divides out the gcd
    after each step.
    """
    check_order(n)
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    width = n - k + 1
    psi.require_order(width, "psi")
    xs, d = scaled(psi.derivs[:width])
    top = math.factorial(width)
    rb = [xs[i - 1] * (top // math.factorial(i)) for i in range(width, 0, -1)]
    step = d * top
    col, scale = [1] + [0] * (width - 1), 1  # g**0 up to t^(w-1)
    for _ in range(k):
        col, scale = reduced(
            [sum(map(operator.mul, rb[-t:], col[:t])) for t in range(1, width + 1)],
            scale * step,
        )
    return Fraction(col[-1] * (math.factorial(n) // math.factorial(k)), scale)


def derivative_bell(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) by outer order: the sum of phi^(k) * B_{n,k} where phi^(k) != 0."""
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    outer = enumerate(phi.derivs[:n], start=1)
    return sum((d * partial_bell(n, k, psi) for k, d in outer if d), Fraction(0))


def lagrange_power_coefficient(
    psi: DerivativeSequence, m: int, n: int
) -> Fraction:
    """D^n(psi(y)**m) / n!, the outer function specialized to x**m.

    J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2, section 4.7)
    on u_k = psi^(k) / k!, u_0 the base value, after factoring out the
    lowest nonzero term, u = t**s * w with w_0 != 0: v = (w / w_0)**m has
    v_0 = 1 and k * v_k = sum_{j=1}^{k} ((m+1)*j - k) * (w_j / w_0) * v_{k-j}.
    The answer is w_0**m * v_{n - s*m}.  It runs on integers: w_j / w_0 =
    W_j / d over their least common denominator d, and v_0..v_k are
    integers V over one scale S; each step multiplies them and S by k * d
    and divides out their gcd.

    |m| is bounded by ``MAX_EXPONENT`` (2000), the bound ``x^m`` has as an
    expression: the integers grow with m, so a larger exponent is a
    ValueError rather than a run of minutes.  m < 0 with a zero base raises
    ZeroDivisionError, and the result is 0 when m = 0, when psi vanishes
    through order n, or when n < s*m.
    """
    check_exponent(m)
    psi.require_order(n, "psi")
    base = psi.require_base("psi")
    if base == 0 and m < 0:
        raise ZeroDivisionError(f"psi**{m} needs a nonzero base value, but it is 0")
    u = psi.taylor_coefficients(n)
    s = next((k for k, c in enumerate(u) if c), None)
    if m == 0 or s is None or n < s * m:
        return Fraction(0)
    last = n - s * m
    w0 = u[s]
    ratios = [c / w0 for c in u[s + 1 : s + last + 1]]
    d = math.lcm(*(r.denominator for r in ratios))
    W = [0] + [r.numerator * (d // r.denominator) for r in ratios]
    V, S = [1], 1
    for k in range(1, last + 1):
        acc = sum(((m + 1) * j - k) * W[j] * V[k - j] for j in range(1, k + 1))
        kd = k * d
        V = [v * kd for v in V]
        V.append(acc)
        S *= kd
        g = math.gcd(S, *V)
        V = [v // g for v in V]
        S //= g
    return w0**m * Fraction(V[-1], S)


def power_derivatives(m: int, x0: Fraction, n: int) -> DerivativeSequence:
    """Derivative sequence of x**m at x0, orders 1..n, base included.

    The k-th derivative is m(m-1)...(m-k+1) * x0**(m-k).  Entries whose
    falling factorial vanishes are 0 outright, so a zero x0 is fine for
    m >= 0; negative m with x0 = 0 raises ZeroDivisionError.  |m| is
    bounded by ``MAX_EXPONENT`` (2000), as for ``lagrange_power_coefficient``:
    x0**m grows with m, so a larger exponent is a ValueError.
    """
    check_exponent(m)
    check_order(n)
    x0 = as_rational(x0)
    if x0 == 0 and m < 0:
        raise ZeroDivisionError(f"x**{m} is undefined at 0")
    derivs = []
    for k in range(1, n + 1):
        ff = falling_factorial(m, k)
        derivs.append(ff * x0 ** (m - k) if ff else Fraction(0))
    return DerivativeSequence(derivs=tuple(derivs), base=x0**m)
