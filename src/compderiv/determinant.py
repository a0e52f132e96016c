"""The determinant route: D_y^{n+1} of a composition as an exact
(n+1) x (n+1) determinant over a formal polynomial ring.

The matrix entries are polynomials in one indeterminate Phi whose
exponent, after the determinant is expanded, is reinterpreted as the
derivation order of the outer function: the monomial c * Phi**p becomes
c * phi^(p).  Column 1 carries inner derivatives times Phi, the diagonal
below row 1 is -1, and the upper triangle carries binomially weighted
inner derivatives times Phi.  The raw determinant equals
(-1)^n * D_y^{n+1}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Mapping

from .composition import DerivativeSequence
from .exact import binomial, format_rational, reduced, scaled

__all__ = [
    "PhiPolynomial",
    "CompositionMatrix",
    "build_matrix",
    "determinant_expand",
    "interpret_phi_polynomial",
    "derivative_determinant",
]


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

    def coefficient(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __mul__(self, other: "PhiPolynomial") -> "PhiPolynomial":
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
    """The (n+1) x (n+1) matrix whose determinant yields D_y^{n+1}."""

    n: int
    entries: tuple[tuple[PhiPolynomial, ...], ...]

    def __post_init__(self) -> None:
        size = self.n + 1
        if len(self.entries) != size or any(len(row) != size for row in self.entries):
            raise ValueError(f"matrix for n={self.n} must be {size}x{size}")

    @property
    def size(self) -> int:
        return self.n + 1

    def entry(self, r: int, c: int) -> PhiPolynomial:
        """1-based access, matching the displayed determinant layout."""
        return self.entries[r - 1][c - 1]

    def validate(self) -> None:
        """Check the structural pattern the expansion algorithm relies on:
        -1 on the diagonal from row 2 down, zeros in the lower-left block
        outside column 1, and pure Phi-monomials in column 1 and above the
        diagonal.
        """
        minus_one = PhiPolynomial.constant(-1)
        for r in range(1, self.size + 1):
            for c in [1, *range(r + 1, self.size + 1)]:
                entry = self.entry(r, c)
                if any(e != 1 for e, _ in entry.items()):
                    raise ValueError(f"entry ({r},{c}) must be c*Phi: {entry}")
            if r >= 2 and self.entry(r, r) != minus_one:
                raise ValueError(f"diagonal entry at row {r} must be -1")
            for c in range(2, r):
                if not self.entry(r, c).is_zero():
                    raise ValueError(f"entry ({r},{c}) must be zero")


def build_matrix(psi: DerivativeSequence, n: int) -> CompositionMatrix:
    """Construct the determinant matrix for D_y^{n+1} from psi derivatives.

    With 1-based indices r, c and T the Phi indeterminate:

        entry(r, 1) = psi^(n+2-r) * T
        entry(r, r) = -1                      for r >= 2
        entry(r, c) = C(n-r+1, c-r-1) * psi^(c-r) * T    for c > r
        entry(r, c) = 0                       otherwise

    Row 1 follows the same binomial formula with r = 1.  Needs psi
    derivatives up to order n+1.
    """
    if n < 0:
        raise ValueError(f"matrix order must be non-negative, got n={n}")
    psi.require_order(n + 1, "psi")
    size = n + 1
    rows = []
    for r in range(1, size + 1):
        row = []
        for c in range(1, size + 1):
            if c == 1:
                entry = PhiPolynomial.monomial(1, psi.derivative(n + 2 - r))
            elif c == r:
                entry = PhiPolynomial.constant(-1)
            elif c > r:
                weight = binomial(n - r + 1, c - r - 1)
                entry = PhiPolynomial.monomial(1, weight * psi.derivative(c - r))
            else:
                entry = PhiPolynomial.zero()
            row.append(entry)
        rows.append(tuple(row))
    return CompositionMatrix(n=n, entries=tuple(rows))


def determinant_expand(matrix: CompositionMatrix) -> PhiPolynomial:
    """Exact determinant of the matrix as a Phi-polynomial.

    Cofactor expansion down column 1: deleting row r and column 1 leaves a
    minor whose trailing rows are upper triangular with -1 diagonal, so
    its determinant is (+/-) the leading principal minor H_{r-1} of the
    matrix with column 1 removed.  Those minors satisfy the first-order
    recurrence

        H_k = sum_{i=1..k} A[i][k] * H_{i-1},    A[i][j] = entry(i, j+1),

    and reading column 1 as column n+2 makes the expansion the last step
    of that recurrence: det = (-1)^n * H_{n+1}.  Every entry it reads is
    c * Phi (``validate`` checks that), which shifts H up one power, so
    the Phi^p coefficients of all H_k follow from the Phi^(p-1)
    coefficients alone.  The recurrence runs one power at a time, on every
    c = a / d from one ``scaled`` call: the column of Phi^p coefficients
    is integers over one scale, d times the scale of Phi^(p-1), and both
    are divided by their gcd before the next power, so the integers grow
    with the true denominators, not with a power of d.  That costs O(n^3)
    integer multiplications; no general O(n!) expansion ever happens.
    """
    matrix.validate()
    size = matrix.size
    # A[i][k] = entry(i, k+1) for i <= k, in recurrence order; column n+2 is column 1.
    cells = [(i, k % size + 1) for k in range(1, size + 1) for i in range(1, k + 1)]
    flat, d = scaled([matrix.entry(r, c).coefficient(1) for r, c in cells])
    entries = iter(flat)
    columns = [list(islice(entries, k)) for k in range(1, size + 1)]  # A[1..k][k]
    sign = (-1) ** matrix.n
    # column[t] / scale is the coefficient of Phi^(p-1) in H_(p-1+t); H_0 = 1.
    column, scale, terms = [1], 1, []
    for p in range(1, size + 1):
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
    normalizing the sign recovers the derivative.  Orders below 2 are
    rejected: the determinant form starts at the second derivative.
    """
    if order < 2:
        raise ValueError(
            f"determinant route needs order >= 2, got {order}; "
            "use the partition route for the first derivative"
        )
    n = order - 1
    phi.require_order(order, "phi")
    psi.require_order(order, "psi")
    expanded = determinant_expand(build_matrix(psi, n))
    value = interpret_phi_polynomial(expanded, phi)
    return -value if n % 2 == 1 else value
