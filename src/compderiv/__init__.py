"""compderiv: exact n-th derivatives of function compositions.

Given the derivative values of an outer function phi and an inner
function psi at a point, this package computes D_y^n of phi(psi(y)) by
five independent routes over arbitrary-precision rationals:

* a sum over integer partitions of n (the closed form),
* phi^(k) times partial Bell polynomials from Comtet's identity,
* an (n+1) x (n+1) determinant over a formal polynomial ring,
* truncated Taylor series (jet) composition, and
* a symbolic oracle on polynomial expressions, which expands psi about
  the point, then phi at psi, into integer coefficients cut after order n.

Every route returns exactly the same ``Fraction``, bit for bit; the test
suite and the ``compderiv check`` command enforce that continuously.
"""

from .composition import (
    derivative_bell,
    derivative_partition_sum,
    lagrange_power_coefficient,
    partial_bell,
    power_derivatives,
)
from .determinant import (
    CompositionMatrix,
    PhiPolynomial,
    build_matrix,
    derivative_determinant,
    determinant_expand,
    interpret_phi_polynomial,
)
from .exact import (
    as_rational,
    format_rational,
    parse_rational,
)
from .partitions import enumerate_multiplicity_vectors, multinomial_weight
from .sequence import DerivativeSequence, SequenceTooShortError
from .series import (
    derivative_via_jets,
    jet_compose,
    jet_from_derivatives,
    jet_mul,
)
from .symbolic import (
    ParseError,
    derivative_sequence_of,
    differentiate,
    nth_derivative_of_composition,
    parse,
    taylor_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "parse_rational",
    "format_rational",
    "as_rational",
    "enumerate_multiplicity_vectors",
    "multinomial_weight",
    "DerivativeSequence",
    "SequenceTooShortError",
    "derivative_partition_sum",
    "derivative_bell",
    "partial_bell",
    "lagrange_power_coefficient",
    "power_derivatives",
    "PhiPolynomial",
    "CompositionMatrix",
    "build_matrix",
    "determinant_expand",
    "interpret_phi_polynomial",
    "derivative_determinant",
    "jet_mul",
    "jet_compose",
    "jet_from_derivatives",
    "derivative_via_jets",
    "ParseError",
    "parse",
    "differentiate",
    "nth_derivative_of_composition",
    "derivative_sequence_of",
    "taylor_polynomial",
    "__version__",
]
