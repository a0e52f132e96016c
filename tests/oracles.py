"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately separate from the package under test:
set partitions are enumerated recursively, partition counts come from the
pentagonal-number recurrence, Stirling numbers of the second kind from
their own recurrence, and multiplicity vectors are found by filtering a
bounded product.  These double-check the fast implementations without
sharing any code with them.  The exceptions are the earlier loops of
four routes, kept to pin the integer arithmetic that replaced them:
``partition_sum_on_fractions`` (one Fraction product per partition that
``partition_parts`` lists),
``partial_bell_by_binomials`` (Comtet's binomial recurrence, where the
route now runs Miller's power recurrence),
``power_coefficient_on_fractions`` (Miller's recurrence on Fractions) and
``jet_compose_on_fractions`` (Horner's scheme on Fraction Taylor
coefficients, where the route sums baby-step giant-step powers of the
inner series on integers).  None of the four reads a helper its route reads:
they keep their own factorials, lcm and gcd, so a fault in a helper such
as ``exact.taylor_scaled`` or ``partitions.pair_divisor`` moves the route alone.
``evaluate_on_fractions`` walks a symbolic expression as a plain tree on
``Fraction`` arithmetic, where ``symbolic.derivative_sequence_of`` folds
unreduced integer pairs once per distinct node.
``matrix_entry`` is no oracle: it reads a built determinant matrix back in
the paper's layout, for the matrix tests and the acceptance 3x3 check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterator

from compderiv import DerivativeSequence
from compderiv.determinant import PhiPolynomial
from compderiv.exact import check_order
from compderiv.partitions import partition_parts
from compderiv.symbolic import Add, Constant, Expr, Mul, Pow, Variable


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of a set, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [[first] + block] + smaller[i + 1 :]
        yield [[first]] + smaller


def bell_number_brute(n: int) -> int:
    """Number of set partitions of an n-element set, by enumeration."""
    return sum(1 for _ in set_partitions(list(range(n))))


def block_type(partition: list[list], n: int) -> tuple[int, ...]:
    """Multiplicity vector of a set partition's block sizes."""
    m = [0] * n
    for block in partition:
        m[len(block) - 1] += 1
    return tuple(m)


def partition_type_count(n: int, m: tuple[int, ...]) -> int:
    """Number of set partitions of {1..n} whose block sizes realize m."""
    return sum(1 for sp in set_partitions(list(range(n))) if block_type(sp, n) == m)


def pentagonal_partition_counts(max_n: int) -> list[int]:
    """Integer partition counts p(0)..p(max_n) via Euler's recurrence."""
    p = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def stirling_second_kind(n: int) -> list[int]:
    """S(n, 0)..S(n, n) by the recurrence S(m, j) = j * S(m-1, j) + S(m-1, j-1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < m else 0) + row[j - 1] for j in range(1, m + 1)]
    return row


def brute_multiplicity_vectors(n: int) -> set[tuple[int, ...]]:
    """All (m_1..m_n) with sum j*m_j = n, by filtering a bounded product."""
    ranges = [range(n // j + 1) for j in range(1, n + 1)]
    return {
        m
        for m in product(*ranges)
        if sum(j * mj for j, mj in enumerate(m, start=1)) == n
    }


def composition_derivative_by_set_partitions(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n via the raw sum over set partitions: phi^(|P|) * prod psi^(|B|).

    Exponential in n, which is exactly why it is trustworthy for small n.
    """
    total = Fraction(0)
    for sp in set_partitions(list(range(n))):
        term = phi.derivs[len(sp) - 1]
        for block in sp:
            term *= psi.derivs[len(block) - 1]
        total += term
    return total


def partition_sum_on_fractions(
    phi: DerivativeSequence, psi: DerivativeSequence, n: int
) -> Fraction:
    """D_y^n of phi(psi(y)) as the partition sum, one Fraction product per partition.

    sums[p] adds the products of the pair factors psi^(j)**m_j / (m_j! *
    (j!)**m_j) over the partitions with p parts, and the answer is n! * sum_p
    phi^(p) * sums[p].  Exact at any size, and slower than the integer loop.
    """
    phi.require_order(n, "phi")
    psi.require_order(n, "psi")
    factors: dict[tuple[int, int], Fraction] = {}
    sums = [Fraction(0)] * (n + 1)
    for parts in partition_parts(n):
        product = Fraction(1)
        for j, mj in parts:
            factor = factors.get((j, mj))
            if factor is None:
                # One normalisation, where a power and then a division make two.
                d = psi.derivs[j - 1]
                divisor = math.factorial(mj) * math.factorial(j) ** mj
                factor = Fraction(d.numerator**mj, d.denominator**mj * divisor)
                factors[j, mj] = factor
            product *= factor
        sums[sum(mj for _, mj in parts)] += product
    total = sum((phi.derivs[p - 1] * s for p, s in enumerate(sums) if s), Fraction(0))
    return math.factorial(n) * total


def partial_bell_by_binomials(n: int, k: int, psi: DerivativeSequence) -> Fraction:
    """B_{n,k} at psi', psi'', ... by Comtet's binomial recurrence, one column at a time.

    B_{m,j} = sum_{i=1}^{m-j+1} C(m-1, i-1) * psi^(i) * B_{m-i,j-1}, columns
    j = 1..k over the rows m <= n - k + j, on integers over one scale, psi
    over its own lcm and each column divided by its gcd with the scale.
    """
    check_order(n)
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    width = n - k + 1
    psi.require_order(width, "psi")
    xs = psi.derivs[:width]
    d = math.lcm(*(x.denominator for x in xs))
    a = [0] + [x.numerator * (d // x.denominator) for x in xs]
    col, scale = [1] + [0] * (width - 1), 1  # B_{m,0} for m = 0..n-k
    for j in range(1, k + 1):
        col = [0] * j + [
            sum(math.comb(m - 1, i - 1) * a[i] * col[m - i] for i in range(1, m - j + 2))
            for m in range(j, width + j)
        ]
        g = math.gcd(scale * d, *col)
        col, scale = [c // g for c in col], scale * d // g
    return Fraction(col[n], scale)


def power_coefficient_on_fractions(psi: DerivativeSequence, m: int, n: int) -> Fraction:
    """D^n(psi(y)**m) / n! by Miller's recurrence on Fractions, any integer m.

    With u = t**s * w, w_0 != 0: v = w**m has v_0 = w_0**m and k * w_0 * v_k =
    sum_{j=1}^{k} ((m+1)*j - k) * w_j * v_{k-j}; the answer is v_{n - s*m}.
    """
    psi.require_order(n, "psi")
    base = psi.require_base("psi")
    if base == 0 and m < 0:
        raise ZeroDivisionError(f"psi**{m} needs a nonzero base value, but it is 0")
    u = [base] + [d / math.factorial(k) for k, d in enumerate(psi.derivs[:n], start=1)]
    s = next((k for k, c in enumerate(u) if c), None)
    if m == 0 or s is None or n < s * m:
        return Fraction(0)
    w = u[s:]
    v = [w[0] ** m]
    for k in range(1, n - s * m + 1):
        acc = sum(((m + 1) * j - k) * w[j] * v[k - j] for j in range(1, k + 1))
        v.append(acc / (k * w[0]))
    return v[-1]


def jet_compose_on_fractions(
    outer: DerivativeSequence, inner: DerivativeSequence
) -> DerivativeSequence:
    """The jet ``outer`` at the jet ``inner``, both of the same order, on Fractions.

    Horner's scheme r <- r * u + b_k with Cauchy products on the Taylor
    coefficients d_k / k!; the inner series u is centered, so its base is
    not read.
    """
    order = len(inner.derivs)
    b = [outer.base or Fraction(0)] + [
        d / math.factorial(k) for k, d in enumerate(outer.derivs, 1)
    ]
    u = [Fraction(0)] + [d / math.factorial(k) for k, d in enumerate(inner.derivs, 1)]
    r = [Fraction(0)] * (order + 1)
    for b_k in reversed(b):
        r = [
            sum((r[i] * u[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(order + 1)
        ]
        r[0] += b_k
    return DerivativeSequence(
        tuple(math.factorial(m) * r[m] for m in range(1, order + 1)), outer.base
    )


def evaluate_on_fractions(e: Expr, at: Fraction) -> Fraction:
    """The value of an expression at ``at``, one Fraction operation per node on a path.

    No memo: a subtree shared by several parents is evaluated once per
    path to it.  Each operator node is pushed again under a ``None`` marker
    before its children, and on that second pop it combines the values its
    children left on ``values``; no recursion.
    """
    values: list[Fraction] = []
    stack: list[Expr | None] = [e]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            if isinstance(node, Pow):
                values.append(values.pop() ** node.exponent)
            else:
                right, left = values.pop(), values.pop()
                values.append(left + right if isinstance(node, Add) else left * right)
        elif isinstance(node, Constant):
            values.append(Fraction(node.value))
        elif isinstance(node, Variable):
            values.append(at)
        elif isinstance(node, Pow):
            stack += [node, None, node.base]
        elif isinstance(node, (Add, Mul)):
            stack += [node, None, node.right, node.left]
        else:
            raise TypeError(f"not an expression node: {node!r}")
    (value,) = values
    return value


def matrix_entry(
    matrix: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], r: int, c: int
) -> PhiPolynomial:
    """The entry at 1-based row r, column c of ``build_matrix``'s pair
    (columns, scales) in the paper's layout: a stored coefficient over the
    scale of the psi order it reads, times Phi, in column 1 and above the
    diagonal, -1 on the diagonal below row 1, and 0 elsewhere."""
    columns, scales = matrix
    n = len(columns) - 1
    if c == 1:
        stored, order = columns[n][r - 1], n + 2 - r
    elif c > r:
        stored, order = columns[c - 2][r - 1], c - r
    else:
        return PhiPolynomial({0: -1} if c == r else {})
    return PhiPolynomial({1: Fraction(stored, scales[order - 1])})


def random_rational(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_sequence(
    rng: random.Random, n: int, with_base: bool = True
) -> DerivativeSequence:
    return DerivativeSequence(
        derivs=tuple(random_rational(rng) for _ in range(n)),
        base=random_rational(rng) if with_base else None,
    )
