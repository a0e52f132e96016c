"""Closed-form routes for the n-th derivative of a composition phi(psi(y)).

All three routes consume plain derivative values at a point, never the
functions themselves: the caller supplies psi', psi'', ... evaluated at
the expansion point and phi', phi'', ... evaluated at psi of that point.

* ``derivative_partition_sum`` sums one exact term per integer partition
  of n (the primary closed form) on integers: one explicit stack fixes the
  multiplicities of the sizes >= 3 and carries each prefix's integer
  weight, a per-call table of the splits of r units into 2s and 1s
  finishes each prefix, sizes where psi vanishes are skipped, no partition
  has more parts than phi's last nonzero order, and one running common
  denominator is kept per outer order p.
* ``derivative_bell`` sums phi^(k) * B_{n,k} over the k where phi^(k) != 0;
  ``partial_bell`` gets B_{n,k} from Comtet's identity, the k-th power of
  a series read at one coefficient, and raises the series to that power by
  J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, section 4.7) on
  integers, each coefficient over its own scale: O(w * z) products by
  psi's values per call, w = n - k + 1 and z the nonzero values among
  psi^(1..w), so O(w**2) at most and O(n**3) for the route, without
  partitions; k = 1 needs no recurrence.
* ``lagrange_power_coefficient`` is the special case phi(x) = x**m: the
  n-th Taylor coefficient of psi(y)**m by the same recurrence,
  |m| <= MAX_EXPONENT.

Both read [t^n] u**m, u psi's Taylor series, from ``_power_coefficient``:
it writes u as integers with ``exact.taylor_scaled``, runs the recurrence
in ``_miller_power`` and scales the result back.  The recurrence keeps v_t
over S_t, the product of the factors its steps 1..t took out, and never
rescales the v_t it has; each step sums over the nonzero terms of u only.

The partition sum and Bell add their outer orders, phi^(p) = f_p / g_p
times an inner coefficient N_p / D_p, with ``exact.rational_sum`` on the
integer pairs (f_p * N_p, g_p * D_p): one running lcm and one reduced
``Fraction`` per call.

The input type, ``DerivativeSequence``, lives in ``sequence``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    as_rational,
    check_exponent,
    check_int,
    check_order,
    rational_sum,
    taylor_scaled,
)
from .partitions import check_partition_order, pair_divisor
from .sequence import DerivativeSequence  # bench/workloads.py reads it from here

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

    and the sum runs on integers.  With psi^(j) = a_j / b_j, a term is
    num / den, num = n! / prod pair_divisor(j, m_j) * prod a_j**m_j and
    den = prod b_j**m_j.  rows[j][m] = (pair_divisor(j, m), a_j**m, b_j**m)
    is built once per call for each size j with psi^(j) != 0; a size with
    psi^(j) = 0 takes m_j = 0 only, so no term that would be 0 is built.
    Likewise phi^(p) = 0 for p past ``most``, the last order k <= n with
    phi^(k) != 0, so the walk visits only the partitions with at most
    ``most`` parts, and the sum is 0 when there is no such order; rows[j]
    stops at m = min(n // j, most).

    One explicit stack walks the sizes j >= 3, largest first.  A frame is
    a prefix: its (num, den), the r units its sizes leave, and its slack,
    ``most`` less its parts.  Popping one pushes a frame for each m_j >= 1
    of each smaller nonzero size j <= r and leaves m_j = 0 for all of them;
    then the r units left are split into m_2 twos and m_1 = r - 2 * m_2
    ones.  No split of r units has more than r parts, so while r <= slack
    nothing is cut.  Otherwise m parts of size j and the r - j * m units
    left in parts below j make at least ceil((r - m) / (j - 1)) parts, so m
    runs from r - slack * (j - 1), and to slack at most.  tails[r] holds the
    splits into twos and ones, one (divisor, top, bottom, m_1 + m_2) per
    m_2 that rows[2] and rows[1] both hold and that makes at most ``most``
    parts, each the product of the two row entries; it is built the first
    time the walk reaches r, and a frame drops its leading entries with
    more than slack parts.  So a term costs one floor division and two
    products before it is added.  The frames pending at size j come from
    one popped frame, so the stack holds at most sum_{j=3}^{n} n // j
    < n * ln(n) frames.  The floor division by a divisor is exact at every
    prefix: its sizes sum to some m <= n, and n! / prod divisors =
    (n! / m!) * (m! / prod divisors) is an integer.  The terms with p parts
    add up to nums[most - p] / dens[most - p], indexed by the slack they
    leave, dens[most - p] the running lcm of their denominators, unreduced
    until the last step; a term whose denominator divides it costs one
    divmod and no gcd.  ``exact.rational_sum`` adds
    sum_p phi^(p) * nums[most - p] / dens[most - p] over one more running lcm.
    """
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    check_partition_order(n)
    most = n
    while most and not phi.derivs[most - 1]:
        most -= 1
    if not most:
        return Fraction(0)
    rows = [[(1, 1, 1)]] * (n + 2)  # m_j = 0 only, unless psi^(j) != 0; rows[2] at n = 1
    below = [2] * (n + 1)  # below[k]: the largest j in 3..k with psi^(j) != 0, else 2
    for j, d in enumerate(psi.derivs[:n], start=1):
        if d:
            a, b = d.numerator, d.denominator
            count = n // j if j * most >= n else most  # min(n // j, most), without a call
            rows[j] = [(pair_divisor(j, m), a**m, b**m) for m in range(count + 1)]
        if j > 2:
            below[j] = j if d else below[j - 1]
    ones, twos = rows[1], rows[2]
    tails = [None] * (n + 1)  # tails[r] = _tail_row(ones, twos, r, most), built on first use
    nums, dens = [0] * most, [1] * most
    stack = [(n, n, math.factorial(n), 1, most)]  # sizes <= j left, r units, num, den, slack
    while stack:
        j, r, num, den, slack = stack.pop()
        j = below[j if j < r else r]
        while j > 2:
            row = rows[j]
            if r <= slack:
                ms = range(1, r // j + 1)
            else:
                ms = range(max(1, r - slack * (j - 1)), min(r // j, slack) + 1)
            for m in ms:
                divisor, top, bottom = row[m]
                stack.append((j - 1, r - j * m, num // divisor * top, den * bottom, slack - m))
            j = below[j - 1]
        tail = tails[r]
        if tail is None:
            tail = tails[r] = _tail_row(ones, twos, r, most)
        if r > slack and tail:  # the parts fall by 1 per entry
            tail = tail[max(0, tail[0][3] - slack) :]
        for divisor, top, bottom, parts in tail:
            term = num // divisor * top
            under = den * bottom
            q = slack - parts
            common = dens[q]
            quotient, rest = divmod(common, under)
            if rest:
                g = math.gcd(common, under)
                scale = under // g
                nums[q] = nums[q] * scale + term * (common // g)
                dens[q] = common * scale
            else:
                nums[q] += term * quotient
    outer = zip(reversed(phi.derivs[:most]), nums, dens)
    return rational_sum((d.numerator * a, d.denominator * b) for d, a, b in outer)


def _tail_row(
    ones: list[tuple[int, int, int]], twos: list[tuple[int, int, int]], r: int, most: int
) -> list[tuple[int, int, int, int]]:
    """The splits of r units into m_2 twos and m_1 = r - 2 * m_2 ones, one per m_2
    that both rows hold and with m_1 + m_2 = r - m_2 <= most, m_2 rising:
    (pair_divisor(2, m_2) * pair_divisor(1, m_1), a_2**m_2 * a_1**m_1,
    b_2**m_2 * b_1**m_1, m_1 + m_2)."""
    tail = []
    for m2 in range(max(0, r - most, (r - len(ones) + 2) // 2), min(r // 2, len(twos) - 1) + 1):
        (divisor2, top2, bottom2), (divisor1, top1, bottom1) = twos[m2], ones[r - 2 * m2]
        tail.append((divisor2 * divisor1, top2 * top1, bottom2 * bottom1, r - m2))
    return tail


def partial_bell(n: int, k: int, psi: DerivativeSequence) -> Fraction:
    """The partial Bell polynomial B_{n,k} evaluated at psi', psi'', ...

    Comtet's identity (Advanced Combinatorics, 1974, section 3.3) on
    x_i = psi^(i): B_{n,k} = n!/k! * [t^n] (sum_i x_i t^i / i!)**k, read by
    ``_power_coefficient``.  The other k - 1 factors give at least t^(k-1),
    so it reads psi up to order n - k + 1 only.
    """
    check_order(n)
    check_int(k, "k")
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    width = n - k + 1
    psi.require_order(width, "psi")
    num, den = _power_coefficient((0, *psi.derivs[:width]), k, n)
    return Fraction(num * (math.factorial(n) // math.factorial(k)), den)


def derivative_bell(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) by outer order: the sum of phi^(k) * B_{n,k} where phi^(k) != 0."""
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    outer = enumerate(phi.derivs[:n], start=1)
    bells = ((d, partial_bell(n, k, psi)) for k, d in outer if d)
    return rational_sum((d.numerator * b.numerator, d.denominator * b.denominator) for d, b in bells)


def lagrange_power_coefficient(psi: DerivativeSequence, m: int, n: int) -> Fraction:
    """D^n(psi(y)**m) / n!, the outer function specialized to x**m: [t^n] u**m
    for psi's Taylor series u about the point, read by ``_power_coefficient``.

    |m| is bounded by ``MAX_EXPONENT`` (2000), the bound ``x^m`` has as an
    expression: the integers grow with m, so a larger exponent is a
    ValueError rather than a run of minutes.  m < 0 with a zero base raises
    ZeroDivisionError, and the result is 0 when m = 0, when psi vanishes
    through order n, or when n < s*m, s the order of the first nonzero term.
    """
    check_exponent(m)
    psi.require_order(n, "psi")
    base = psi.require_base("psi")
    if base == 0 and m < 0:
        raise ZeroDivisionError(f"psi**{m} needs a nonzero base value, but it is 0")
    return Fraction(*_power_coefficient((base, *psi.derivs[:n]), m, n))


def _power_coefficient(values: tuple[Fraction, ...], m: int, n: int) -> tuple[int, int]:
    """num / den = [t^n] u**m, u = sum_k values[k] t^k / k!, on integers.

    With s the first k where values[k] != 0, u = t**s * w and w_0 != 0, so
    [t^n] u**m = w_0**m * [t^(n-s*m)] (w / w_0)**m, or 0 when m = 0, when
    no value is nonzero or when n < s*m; the terms of w past t^(n-s*m) do
    not reach it.
    ``exact.taylor_scaled`` writes those terms as integers W over one scale,
    and ``_miller_power`` reads v / scale = [t^(n-s*m)] (W / W_0)**m from
    them: scaling w leaves w / w_0 as it is.  w_0 is values[s] / s! =
    p / (q * s!), so the powers are of p and q * s!, not of the wider W_0 and
    its scale: num / den = p**m * v / ((q * s!)**m * scale), with p and
    q * s! swapped for m < 0.  den may be negative.  ``_miller_power`` takes
    O((n - s*m) * z) products by the z nonzero values past values[s], and
    m = 1 takes none.
    """
    s = next((k for k, c in enumerate(values) if c), None)
    if not m or s is None or n < s * m:
        return 0, 1
    W, _ = taylor_scaled(values[s : n - s * m + s + 1], s)
    v, scale = _miller_power(W, m)
    top, bottom = values[s].numerator, values[s].denominator * math.factorial(s)
    if m < 0:
        top, bottom, m = bottom, top, -m
    return top**m * v, bottom**m * scale


def _miller_power(W: list[int], m: int) -> tuple[int, int]:
    """v / scale = [t^N] (W(t) / W_0)**m, N = len(W) - 1, for integers W, W_0 != 0.

    J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2, section 4.7):
    v = (W / W_0)**m has v_0 = 1 and
    j * W_0 * v_j = sum_{i=1}^{j} ((m+1)*i - j) * W_i * v_{j-i}.
    Each v_t is an integer V[t] over its own scale S_t = F[1] * ... * F[t],
    S_0 = 1, and V is never rescaled.  Step j forms acc, the sum above over
    S_{j-1}, from the nonzero W_i only, i falling, so t = j - i rises: it
    lifts the running sum Horner-style by F[u] for each u it passes (no
    product where F[u] = 1, none before the first term) and once more up to
    S_{j-1} after the last.  So acc is the sum that multiplying all of V by
    each F[j] in turn would give.  Then c = gcd(j * W_0, acc),
    F[j] = j * W_0 / c, V[j] = acc / c and scale = S_j.  That is O(N * z)
    products by W_i and steps, z the number of nonzero W_i with i >= 1,
    plus at most one lift per u < j, each by a factor no wider than
    j * W_0; O(N**2) only when W is dense.  m = 1 needs no recurrence:
    W_N / W_0.
    """
    if m == 1:
        return W[-1], W[0]
    V, F, scale = [1], [1], 1  # F[0] = 1, so a first term at t = 0 takes no lift
    m1 = m + 1
    terms, last = [], 0  # (i, W_i, gap to the previous nonzero order) for i falling
    for i in range(len(W) - 1, 0, -1):
        if W[i]:
            terms.append((i, W[i], last - i if last else 0))
            last = i
    first = len(terms)  # terms[first:] are the orders i <= j
    for j in range(1, len(W)):
        if first and terms[first - 1][0] == j:
            first -= 1
        acc = 0
        for i, w, gap in terms[first:]:
            t = j - i  # acc is over S_{t - gap}; lift it to S_t
            if gap == 1:
                f = F[t]
                if f != 1:
                    acc *= f
            elif acc:  # a zero sum needs no lift; a first term past t = 0 has no previous t
                for f in F[t - gap + 1 : t + 1]:
                    if f != 1:
                        acc *= f
            acc += (m1 * i - j) * w * V[t]
        if last > 1 and acc:  # from S_{j - last} up to S_{j-1}
            for f in F[j - last + 1 : j]:
                if f != 1:
                    acc *= f
        step = j * W[0]
        c = math.gcd(step, acc)
        f = step // c
        F.append(f)
        V.append(acc // c)
        scale *= f
    return V[-1], scale


def power_derivatives(m: int, x0: Fraction, n: int) -> DerivativeSequence:
    """Derivative sequence of x**m at x0, orders 1..n, base included.

    The k-th derivative is m(m-1)...(m-k+1) * x0**(m-k), the falling
    factorial kept as one running product.  Once a factor is 0 (k > m >= 0)
    the entries are 0 outright, so a zero x0 is fine for m >= 0; negative m
    with x0 = 0 raises ZeroDivisionError.  |m| is bounded by
    ``MAX_EXPONENT`` (2000), as for ``lagrange_power_coefficient``: x0**m
    grows with m, so a larger exponent is a ValueError.
    """
    check_exponent(m)
    check_order(n)
    x0 = as_rational(x0)
    if x0 == 0 and m < 0:
        raise ZeroDivisionError(f"x**{m} is undefined at 0")
    derivs, ff = [], 1
    for k in range(1, n + 1):
        ff *= m - k + 1
        derivs.append(ff * x0 ** (m - k) if ff else Fraction(0))
    return DerivativeSequence(derivs=tuple(derivs), base=x0**m)
