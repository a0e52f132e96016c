"""The determinant route: D_y^{n+1} of a composition as an exact
(n+1) x (n+1) determinant over a formal polynomial ring.

The matrix entries are polynomials in one indeterminate Phi whose
exponent, after the determinant is expanded, is reinterpreted as the
derivation order of the outer function: the monomial c * Phi**p becomes
c * phi^(p).  Column 1 carries inner derivatives times Phi, the diagonal
below row 1 is -1, and the upper triangle carries binomially weighted
inner derivatives times Phi.  The raw determinant equals
(-1)^n * D_y^{n+1}.

The matrix is stored as the integer coefficients of its c * Phi entries
over one common denominator, column by column in the order the
expansion reads them; ``CompositionMatrix.entry`` rebuilds any entry as
a ``PhiPolynomial`` for display, and ``PhiPolynomial`` is the type of the
expanded determinant.  The expansion runs one power of Phi at a time, so
the route stops it at the last power whose phi^(p) is nonzero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .composition import DerivativeSequence
from .exact import format_rational, reduced, scaled

__all__ = [
    "MIN_DETERMINANT_ORDER",
    "PhiPolynomial",
    "CompositionMatrix",
    "build_matrix",
    "determinant_expand",
    "interpret_phi_polynomial",
    "derivative_determinant",
]

MIN_DETERMINANT_ORDER = 2  # its matrix for D_y^{n+1} has n >= 0


class PhiPolynomial:
    """Polynomial in the formal symbol Phi with exact rational coefficients.

    Immutable; zero coefficients are never stored, so equality is plain
    dict comparison.
    """

    __slots__ = ("_coeffs",)

    def __init__(
        self,
        coeffs: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = (),
    ):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned: dict[int, Fraction] = {}
        for exponent, coefficient in items:
            if exponent < 0:
                raise ValueError(f"Phi exponent must be non-negative: {exponent}")
            value = Fraction(coefficient)
            if value != 0:
                cleaned[int(exponent)] = value
        self._coeffs = cleaned

    @classmethod
    def zero(cls) -> "PhiPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: Fraction | int) -> "PhiPolynomial":
        return cls(((0, Fraction(value)),))

    @classmethod
    def monomial(cls, exponent: int, coefficient: Fraction | int) -> "PhiPolynomial":
        return cls(((exponent, Fraction(coefficient)),))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __mul__(self, other: "PhiPolynomial") -> "PhiPolynomial":
        """The ring product.  Benchmark API: ``bench/tracing.py`` looks this name up."""
        out: dict[int, Fraction] = {}
        for ea, ca in self._coeffs.items():
            for eb, cb in other._coeffs.items():
                exponent = ea + eb
                out[exponent] = out.get(exponent, Fraction(0)) + ca * cb
        return PhiPolynomial(out)

    def __repr__(self) -> str:
        return f"PhiPolynomial({self._coeffs!r})"

    def __str__(self) -> str:
        """Text form with descending exponents: "8*Phi^3 + 6*Phi^2 + 1*Phi"."""
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for exponent in sorted(self._coeffs, reverse=True):
            coefficient = self._coeffs[exponent]
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


@dataclass(frozen=True)
class CompositionMatrix:
    """The (n+1) x (n+1) matrix whose determinant yields D_y^{n+1}.

    Every entry the expansion reads is c * Phi, so the matrix keeps only
    those c, as integers over one ``scale``, in the order the leading-minor
    recurrence reads them: ``columns[k-1]`` holds A[1..k][k] with
    A[i][k] = entry(i, k+1) for k <= n, and ``columns[n]`` holds column 1,
    entry(1..n+1, 1).  The -1 diagonal below row 1 and the zeros below it
    outside column 1 are implied, so no stored value can break them.
    """

    n: int
    columns: tuple[tuple[int, ...], ...]
    scale: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"matrix order must be non-negative, got n={self.n}")
        if self.scale < 1:
            raise ValueError(f"matrix scale must be positive, got {self.scale}")
        if len(self.columns) != self.n + 1 or any(
            len(column) != k for k, column in enumerate(self.columns, start=1)
        ):
            raise ValueError(
                f"matrix for n={self.n} needs n+1 columns of lengths 1..{self.n + 1}"
            )

    @property
    def size(self) -> int:
        return self.n + 1

    def entry(self, r: int, c: int) -> PhiPolynomial:
        """1-based access, matching the displayed determinant layout."""
        if not (1 <= r <= self.size and 1 <= c <= self.size):
            raise IndexError(f"entry ({r},{c}) is outside the {self.size}x{self.size} matrix")
        if c == 1:
            stored = self.columns[self.n][r - 1]
        elif c > r:
            stored = self.columns[c - 2][r - 1]
        else:
            return PhiPolynomial.constant(-1) if c == r else PhiPolynomial.zero()
        return PhiPolynomial.monomial(1, Fraction(stored, self.scale))


def build_matrix(psi: DerivativeSequence, n: int) -> CompositionMatrix:
    """Construct the determinant matrix for D_y^{n+1} from psi derivatives.

    With 1-based indices r, c and T the Phi indeterminate:

        entry(r, 1) = psi^(n+2-r) * T
        entry(r, r) = -1                      for r >= 2
        entry(r, c) = C(n-r+1, c-r-1) * psi^(c-r) * T    for c > r
        entry(r, c) = 0                       otherwise

    Row 1 follows the same binomial formula with r = 1.  Needs psi
    derivatives up to order n+1.  One ``scaled`` call writes them as
    a_j / d; column 1 carries every a_j with weight 1, so d is also the
    least common denominator of all the cells, and the stored columns
    are C(n-i+1, k-i) * a_(k+1-i) for i = 1..k (column k+1 of the matrix)
    and a_(n+2-i) for i = 1..n+1 (column 1), all over d.
    """
    psi.require_order(n + 1, "psi")
    a, d = scaled([psi.derivative(j) for j in range(1, n + 2)])  # a[j-1] = a_j
    columns = [
        tuple(math.comb(n - i + 1, k - i) * a[k - i] for i in range(1, k + 1))
        for k in range(1, n + 1)
    ]
    columns.append(tuple(reversed(a)))
    return CompositionMatrix(n=n, columns=tuple(columns), scale=d)


def determinant_expand(matrix: CompositionMatrix, top: int | None = None) -> PhiPolynomial:
    """Exact determinant of the matrix as a Phi-polynomial, cut after Phi^top.

    ``top`` defaults to the full expansion, n + 1 = ``matrix.size``.

    Cofactor expansion down column 1: deleting row r and column 1 leaves a
    minor whose trailing rows are upper triangular with -1 diagonal, so
    its determinant is (+/-) the leading principal minor H_{r-1} of the
    matrix with column 1 removed.  Those minors satisfy the first-order
    recurrence

        H_k = sum_{i=1..k} A[i][k] * H_{i-1},    A[i][j] = entry(i, j+1),

    and reading column 1 as column n+2 makes the expansion the last step
    of that recurrence: det = (-1)^n * H_{n+1}.  ``matrix.columns`` holds
    exactly these A[1..k][k] as c = a / d over ``matrix.scale`` = d, and
    every such entry is c * Phi, which shifts H up one power, so the
    Phi^p coefficients of all H_k follow from the Phi^(p-1) coefficients
    alone.  The recurrence runs one power at a time: the column of Phi^p
    coefficients is integers over one scale, d times the scale of
    Phi^(p-1), and both are divided by their gcd before the next power,
    so the integers grow with the true denominators, not with a power of
    d.  That costs O(n^3) integer multiplications, O(n^2 * top) when cut;
    no general O(n!) expansion ever happens.
    """
    top = matrix.size if top is None else top
    if not 0 <= top <= matrix.size:
        raise ValueError(f"top must satisfy 0 <= top <= {matrix.size}, got {top}")
    columns, d = matrix.columns, matrix.scale
    sign = (-1) ** matrix.n
    # column[t] / scale is the coefficient of Phi^(p-1) in H_(p-1+t); H_0 = 1.
    column, scale, terms = [1], 1, []
    for p in range(1, top + 1):
        column = [sum(map(operator.mul, a[p - 1 :], column)) for a in columns[p - 1 :]]
        column, scale = reduced(column, scale * d)
        terms.append((p, Fraction(sign * column[-1], scale)))
    return PhiPolynomial(terms)


def interpret_phi_polynomial(
    polynomial: PhiPolynomial, phi: DerivativeSequence
) -> Fraction:
    """Read each exponent as a derivation order: c * Phi**p -> c * phi^(p)."""
    total = Fraction(0)
    for exponent, coefficient in polynomial.items():
        if exponent == 0:
            total += coefficient
        else:
            total += coefficient * phi.derivative(exponent)
    return total


def derivative_determinant(
    phi: DerivativeSequence, psi: DerivativeSequence, order: int
) -> Fraction:
    """D_y^{order} of phi(psi(y)) through the determinant form.

    The determinant of the matrix built for n = order - 1 equals
    (-1)^n * D_y^{n+1}; expanding, reinterpreting Phi exponents and
    normalizing the sign recovers the derivative.  The expansion stops at
    the last power p <= order with phi^(p) != 0, since only those powers
    are read.  Orders below 2 are rejected: the determinant form starts at
    the second derivative.
    """
    if order < MIN_DETERMINANT_ORDER:
        raise ValueError(
            f"determinant route needs order >= {MIN_DETERMINANT_ORDER}, got {order}; "
            "use the partition route for the first derivative"
        )
    n = order - 1
    phi.require_order(order, "phi")
    psi.require_order(order, "psi")
    top = max((k for k, d in enumerate(phi.derivs[:order], start=1) if d), default=0)
    expanded = determinant_expand(build_matrix(psi, n), top)
    value = interpret_phi_polynomial(expanded, phi)
    return -value if n % 2 == 1 else value
