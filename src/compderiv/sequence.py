"""The input type every route shares: derivative values at a point.

A ``DerivativeSequence`` holds psi', psi'', ... (or phi', phi'', ...)
evaluated at the expansion point, with the 0-th value optional.  It lives
in a module of its own so that no route module imports another route's
module to read its inputs.  It holds values and their bounds only: the
routes read its Taylor coefficients d_k / k! through
``exact.taylor_scaled``, and ``symbolic.taylor_polynomial`` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import as_rational, check_order

__all__ = ["DerivativeSequence", "SequenceTooShortError"]


class SequenceTooShortError(ValueError):
    """A route asked for a derivative order the sequence does not hold."""

    def __init__(self, role: str, needed: int, available: int):
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

    def require_order(self, n: int, role: str) -> None:
        check_order(n)
        if len(self.derivs) < n:
            raise SequenceTooShortError(role, n, len(self.derivs))

    def require_base(self, role: str) -> Fraction:
        if self.base is None:
            raise ValueError(f"{role} sequence needs a base value (0-th derivative)")
        return self.base
