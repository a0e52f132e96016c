"""Closed-form routes for the n-th derivative of a composition phi(psi(y)).

All three routes consume plain derivative values at a point, never the
functions themselves: the caller supplies psi', psi'', ... evaluated at
the expansion point and phi', phi'', ... evaluated at psi of that point.

* ``derivative_partition_sum`` sums one exact term per integer partition
  of n (the primary closed form) on integers: integer weights over the
  walk's prefixes, one running common denominator per outer order p.
* ``derivative_bell`` sums phi^(k) * B_{n,k} over k; ``partial_bell``
  gets B_{n,k} from Comtet's recurrence, without partitions.
* ``lagrange_power_coefficient`` is the special case phi(x) = x**m: the
  n-th Taylor coefficient of psi(y)**m by J.C.P. Miller's recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_rational, check_order, falling_factorial, reduced, scaled
from .partitions import pair_divisor, partition_parts

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

    def derivative(self, k: int) -> Fraction:
        """The k-th derivative value, k >= 1."""
        if k < 1:
            raise ValueError(f"derivative order must be >= 1, got {k}")
        return self.derivs[k - 1]

    def require_order(self, n: int, role: str) -> None:
        check_order(n)
        if len(self.derivs) < n:
            raise SequenceTooShortError(role, n, len(self.derivs))

    def require_base(self, role: str) -> Fraction:
        if self.base is None:
            raise ValueError(f"{role} sequence needs a base value (0-th derivative)")
        return self.base

    def taylor_coefficients(self, n: int) -> list[Fraction]:
        """c_0..c_n: the base value (0 when absent), then c_k = d_k / k!."""
        c0 = self.base or Fraction(0)
        return [c0] + [self.derivs[k - 1] / math.factorial(k) for k in range(1, n + 1)]


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

    Comtet's recurrence (Advanced Combinatorics, 1974, section 3.3) on
    x_i = psi^(i), B_{m,j} = sum_{i=1}^{m-j+1} C(m-1, i-1) * x_i * B_{m-i,j-1},
    one column j = 1..k at a time over the rows m <= n - k + j.  It needs
    psi up to order n - k + 1 only, and runs over integers: with x_i = a_i / D
    in the integer-scaled form of ``exact.scaled``, column j is integers over D
    times column j-1's scale, and ``exact.reduced`` divides out their gcd.
    """
    check_order(n)
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    width = n - k + 1
    psi.require_order(width, "psi")
    xs, d = scaled(psi.derivs[:width])
    a = [0] + xs
    col, scale = [1] + [0] * (width - 1), 1  # B_{m,0} for m = 0..n-k
    for j in range(1, k + 1):
        col, scale = reduced([0] * j + [
            sum(math.comb(m - 1, i - 1) * a[i] * col[m - i] for i in range(1, m - j + 2))
            for m in range(j, width + j)
        ], scale * d)
    return Fraction(col[n], scale)


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
    lowest nonzero term, u = t**s * w with w_0 != 0: v = w**m has v_0 =
    w_0**m and k * w_0 * v_k = sum_{j=1}^{k} ((m+1)*j - k) * w_j * v_{k-j}.
    The answer is v_{n - s*m}.  Any integer m is accepted; m < 0 with a
    zero base raises ZeroDivisionError, and the result is 0 when m = 0,
    when psi vanishes through order n, or when n < s*m.
    """
    psi.require_order(n, "psi")
    base = psi.require_base("psi")
    if base == 0 and m < 0:
        raise ZeroDivisionError(f"psi**{m} needs a nonzero base value, but it is 0")
    u = psi.taylor_coefficients(n)
    s = next((k for k, c in enumerate(u) if c), None)
    if m == 0 or s is None or n < s * m:
        return Fraction(0)
    w = u[s:]
    v = [w[0] ** m]
    for k in range(1, n - s * m + 1):
        acc = sum(((m + 1) * j - k) * w[j] * v[k - j] for j in range(1, k + 1))
        v.append(acc / (k * w[0]))
    return v[-1]


def power_derivatives(m: int, x0: Fraction, n: int) -> DerivativeSequence:
    """Derivative sequence of x**m at x0, orders 1..n, base included.

    The k-th derivative is m(m-1)...(m-k+1) * x0**(m-k).  Entries whose
    falling factorial vanishes are 0 outright, so a zero x0 is fine for
    m >= 0; negative m with x0 = 0 raises ZeroDivisionError.
    """
    check_order(n)
    x0 = as_rational(x0)
    if x0 == 0 and m < 0:
        raise ZeroDivisionError(f"x**{m} is undefined at 0")
    derivs = []
    for k in range(1, n + 1):
        ff = falling_factorial(m, k)
        derivs.append(ff * x0 ** (m - k) if ff else Fraction(0))
    return DerivativeSequence(derivs=tuple(derivs), base=x0**m)
