"""The determinant route: D_y^{n+1} of a composition as an exact
(n+1) x (n+1) determinant over a formal polynomial ring.

The matrix entries are polynomials in one indeterminate Phi whose
exponent, after the determinant is expanded, is reinterpreted as the
derivation order of the outer function: the monomial c * Phi**p becomes
c * phi^(p).  Column 1 carries inner derivatives times Phi, the diagonal
below row 1 is -1, and the upper triangle carries binomially weighted
inner derivatives times Phi.  The raw determinant equals
(-1)^n * D_y^{n+1}.

``build_matrix`` returns the matrix as the pair (columns, scales) whose
layout its docstring states.  The expansion runs one power of Phi at a
time, as integers over one scale, and the route stops it at the last
power whose phi^(p) is nonzero.  The route adds each power's integers
times phi^(p) with ``exact.rational_sum``; ``determinant_expand`` turns
the same powers into a ``PhiPolynomial`` for ``derive --show-expansion``
and the acceptance check, and ``interpret_phi_polynomial`` reads one back.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .exact import as_rational, check_int, format_rational, rational_sum, reduced
from .sequence import DerivativeSequence, Record

__all__ = [
    "MIN_DETERMINANT_ORDER",
    "PhiPolynomial",
    "build_matrix",
    "determinant_expand",
    "interpret_phi_polynomial",
    "derivative_determinant",
]

# The 1x1 matrix (n = 0) expands correctly, to psi'*Phi, but the route starts at
# order 2: derive, check and the check report the benchmark expects begin it there.
MIN_DETERMINANT_ORDER = 2


class PhiPolynomial(Record):
    """Polynomial in the formal symbol Phi with exact rational coefficients.

    ``terms`` holds its nonzero ``(exponent, coefficient)`` pairs sorted by
    exponent, so equal polynomials have equal terms.  The constructor takes
    a mapping from exponent to coefficient, or such pairs with no exponent
    repeated; zero coefficients are dropped.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]) -> None:
        coefficients: dict[int, Fraction] = {}
        for exponent, coefficient in terms.items() if isinstance(terms, Mapping) else terms:
            check_int(exponent, "Phi exponent", 0)  # 1.5 or True is not read as Phi^1
            if exponent in coefficients:
                raise ValueError(f"Phi exponent repeated: {exponent}")
            coefficients[exponent] = as_rational(coefficient)
        PhiPolynomial.terms.__set__(self, tuple(sorted((e, c) for e, c in coefficients.items() if c)))

    def __mul__(self, other: "PhiPolynomial") -> "PhiPolynomial":
        """The ring product.  Benchmark API: ``bench/tracing.py`` looks this name up."""
        out: dict[int, Fraction] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                exponent = ea + eb
                out[exponent] = out.get(exponent, Fraction(0)) + ca * cb
        return PhiPolynomial(out)

    def __str__(self) -> str:
        """Text form with descending exponents: "8*Phi^3 + 6*Phi^2 + 1*Phi"."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exponent, coefficient in reversed(self.terms):
            if exponent == 0:
                body = format_rational(abs(coefficient))
            elif exponent == 1:
                body = f"{format_rational(abs(coefficient))}*Phi"
            else:
                body = f"{format_rational(abs(coefficient))}*Phi^{exponent}"
            if not pieces:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
        return " ".join(pieces)


def build_matrix(
    psi: DerivativeSequence, n: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The (n+1) x (n+1) matrix whose determinant yields D_y^{n+1}, from psi
    derivatives up to order n+1, as the pair (columns, scales).

    With 1-based indices r, c and T the Phi indeterminate:

        entry(r, 1) = psi^(n+2-r) * T
        entry(r, r) = -1                      for r >= 2
        entry(r, c) = C(n-r+1, c-r-1) * psi^(c-r) * T    for c > r
        entry(r, c) = 0                       otherwise

    Row 1 follows the same binomial formula with r = 1.  Every entry the
    expansion reads is c * Phi, so the pair keeps only those c, as ints, in
    the order the leading-minor recurrence reads them: ``columns[k-1]``
    holds A[1..k][k], A[i][k] the entry at row i and column k+1, for
    k <= n, and ``columns[n]`` holds column 1, rows 1..n+1; column k has
    length k.  An entry that reads psi^(j) is over ``scales[j-1]``.  With
    psi^(j) = a_j / b_j and L_j = lcm(b_1..b_j), d = L_(n+1), psi^(j) is
    written over its prefix scale L_j when d has more bits than twice the
    widest b_j, and over d otherwise: on small values one d is about as
    wide as any L_j, and the expansion's one-scale loop is the faster.  So
    the n + 1 scales are positive ints, each dividing the next, and they
    are all equal exactly when the first equals the last.  The -1 diagonal
    and the zeros are implied.  The order and psi's length are the only
    checks; the expansion trusts the rest, which holds by construction.
    """
    check_int(n, "matrix order", 0)
    psi.require_order(n + 1, "psi")
    values = psi.derivs[: n + 1]
    dens = [v.denominator for v in values]
    d = math.lcm(*dens)
    wide = d.bit_length() > 2 * max(dens).bit_length()
    scales = tuple(itertools.accumulate(dens, math.lcm)) if wide else (d,) * (n + 1)
    a = [v.numerator * (s // b) for v, s, b in zip(values, scales, dens)]  # a[j-1] reads psi^(j)
    columns = [
        tuple(math.comb(n - i + 1, k - i) * a[k - i] for i in range(1, k + 1))
        for k in range(1, n + 1)
    ]
    columns.append(tuple(reversed(a)))
    return tuple(columns), scales


def _powers(
    columns: tuple[tuple[int, ...], ...], scales: tuple[int, ...], top: int
) -> Iterator[tuple[int, int, int]]:
    """(p, c, scale) for p = 1..top: H_(n+1) has Phi^p coefficient c / scale,
    on ``build_matrix``'s pair, n = ``len(columns) - 1``.

    The leading-minor recurrence of ``determinant_expand``, one power of Phi
    at a time; the determinant's coefficient is (-1)^n times this one.  The
    first ``top`` powers cost O(n^2 * top) integer multiplications.  The
    entry for H_k at power p sums terms j = 1..m, m = k+1-p: psi^(j)'s entry
    times an integer of the previous column.  On one scale d that is one
    ``sum(map(mul, ...))``; on prefix scales the terms add in rising j, the
    sum lifted by L_j / L_(j-1) before term j where that is not 1, then by
    L_w / L_m, w = n+2-p the highest order the power reads.  The column is
    then divided by its gcd with its scale, so the triples do not depend on
    the layout.
    """
    # column[t] / scale is the coefficient of Phi^(p-1) in H_(p-1+t); H_0 = 1.
    column, scale = [1], 1
    if scales[0] == scales[-1]:
        d = scales[0]
        for p in range(1, top + 1):
            column = [sum(map(operator.mul, a[p - 1 :], column)) for a in columns[p - 1 :]]
            column, scale = reduced(column, scale * d)
            yield p, column[-1], scale
        return
    lifts = [1, *(high // low for low, high in zip(scales, scales[1:]))]  # L_j / L_(j-1)
    column += [0] * (len(columns) - 1)  # H_1..H_n have no Phi^0 term: term j reads column[m-j]
    for p in range(1, top + 1):
        high = scales[len(columns) - p]  # L_w
        out = []
        for a, low in zip(columns[p - 1 :], scales):  # psi^(1..m) over L_m
            acc = 0
            for x, y, f in zip(reversed(a[p - 1 :]), reversed(column[: len(a) - p + 1]), lifts):
                if f != 1:
                    acc *= f
                acc += x * y
            out.append(acc if low == high else acc * (high // low))
        column, scale = reduced(out, scale * high)
        yield p, column[-1], scale


def determinant_expand(
    matrix: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]
) -> PhiPolynomial:
    """Exact determinant of ``build_matrix``'s pair as a Phi-polynomial.

    Cofactor expansion down column 1: deleting row r and column 1 leaves a
    minor whose trailing rows are upper triangular with -1 diagonal, so
    its determinant is (+/-) the leading principal minor H_{r-1} of the
    matrix with column 1 removed.  Those minors satisfy the first-order
    recurrence

        H_k = sum_{i=1..k} A[i][k] * H_{i-1},    A[i][j] at row i, column j+1,

    and reading column 1 as column n+2 makes the expansion the last step
    of that recurrence: det = (-1)^n * H_{n+1}, n = ``len(columns) - 1``.
    The columns hold exactly these A[1..k][k] in the layout ``build_matrix``
    states; the expansion checks none of it.
    Every such entry is c * Phi, which shifts H up one power, so the
    Phi^p coefficients of all H_k follow from the Phi^(p-1) coefficients
    alone.  The recurrence runs one power at a time: the column of Phi^p
    coefficients is integers over one scale, the highest psi scale that
    power reads times the scale of Phi^(p-1), and both are divided by
    their gcd before the next power, so the integers grow with the true
    denominators, not with a power of d.  That costs O(n^3) integer
    multiplications; no general O(n!) expansion ever happens.
    """
    columns, scales = matrix
    sign = (-1) ** (len(columns) - 1)
    powers = _powers(columns, scales, len(columns))
    return PhiPolynomial({p: Fraction(sign * c, scale) for p, c, scale in powers})


def interpret_phi_polynomial(
    polynomial: PhiPolynomial, phi: DerivativeSequence
) -> Fraction:
    """Read each exponent as a derivation order: c * Phi**p -> c * phi^(p).

    The terms add up as a plain ``Fraction`` sum, which shares no code with
    the route's ``exact.rational_sum``.
    """
    top = polynomial.terms[-1][0] if polynomial.terms else 0
    if top:
        phi.require_order(top, "phi")
    return sum((c * (phi.derivs[e - 1] if e else 1) for e, c in polynomial.terms), Fraction(0))


def derivative_determinant(
    phi: DerivativeSequence, psi: DerivativeSequence, order: int
) -> Fraction:
    """D_y^{order} of phi(psi(y)) through the determinant form.

    The determinant of the matrix built for n = order - 1 equals
    (-1)^n * D_y^{n+1} = (-1)^n * H_{n+1} (see ``determinant_expand``), so
    the derivative is H_{n+1} with each Phi^p read as phi^(p), and no sign
    is applied.  Each power's integer pair times phi^(p)'s goes straight to
    ``exact.rational_sum``: one Fraction per call.  The recurrence stops at
    the last power p <= order with phi^(p) != 0, since only those powers are
    read.  Orders below 2 are rejected: the determinant form starts at the
    second derivative.
    """
    check_int(order, "derivative order")  # before the bound below reads True as 1
    if order < MIN_DETERMINANT_ORDER:
        raise ValueError(
            f"determinant route needs order >= {MIN_DETERMINANT_ORDER}, got {order}; "
            "use the partition route for the first derivative"
        )
    phi.require_order(order, "phi")  # before build_matrix checks psi
    derivs = phi.derivs
    top = max((k for k, d in enumerate(derivs[:order], start=1) if d), default=0)
    powers = _powers(*build_matrix(psi, order - 1), top)
    return rational_sum(
        (derivs[p - 1].numerator * c, derivs[p - 1].denominator * scale) for p, c, scale in powers
    )
