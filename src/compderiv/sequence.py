"""The input type every route shares: derivative values at a point.

A ``DerivativeSequence`` holds psi', psi'', ... (or phi', phi'', ...)
evaluated at the expansion point, with the 0-th value optional.  It lives
in a module of its own so that no route module imports another route's
module to read its inputs.  It holds values and their bounds only: the
routes read its Taylor coefficients d_k / k! through
``exact.taylor_scaled``, and ``symbolic.taylor_polynomial`` builds its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set
from fractions import Fraction
from typing import Any

from .exact import as_rational, check_order

__all__ = ["DerivativeSequence", "SequenceTooShortError"]


class SequenceTooShortError(ValueError):
    """A route asked for a derivative order the sequence does not hold."""

    def __init__(self, role: str, needed: int, available: int):
        super().__init__(
            f"{role} derivative sequence too short: order {needed} requested "
            f"but only {available} derivative(s) supplied"
        )


class Record:
    """An immutable record whose fields are its class's ``__slots__``: the base
    of ``DerivativeSequence``, ``determinant.PhiPolynomial`` and the
    expression nodes.

    Each ``__init__`` stores its fields through their slot descriptors; any
    other assignment or deletion raises ``AttributeError``.  Records compare
    and hash by their field values, and ``__reduce__`` rebuilds one through
    its constructor for ``pickle`` and ``copy``.  ``repr`` is
    ``Name(field=value, ...)`` with each field that is itself a record in
    its place, as in ``Add(left=Variable(name='x'), right=Constant(value=Fraction(1, 1)))``;
    it streams its pieces from an explicit stack, so it works at any depth.
    """

    __slots__ = ()

    def _fields(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[Record | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces: list[Record | str] = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__slots__):
                value = getattr(item, name)
                pieces.append(f", {name}=" if i else f"{name}=")
                pieces.append(value if isinstance(value, Record) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


class DerivativeSequence(Record):
    """Derivative values at a point: ``derivs[k-1]`` is the k-th derivative.

    ``base`` is the 0-th value (the function value itself); it is optional
    and only the power route requires it.  Values are normalized to
    ``Fraction`` on construction, so sequences built from ints or "p/q"
    strings compare structurally.  ``derivs`` is a list, tuple or other
    iterable of values; a string, bytes, mapping or set is a TypeError.
    """

    __slots__ = ("derivs", "base")
    derivs: tuple[Fraction, ...]
    base: Fraction | None

    def __init__(
        self, derivs: Iterable[Fraction | int | str], base: Fraction | int | str | None = None
    ) -> None:
        if isinstance(derivs, (str, bytes, bytearray, Mapping, Set)):  # "12" is not ("1", "2")
            raise TypeError(f"derivs must be a sequence of values, not a {type(derivs).__name__}")
        _set_derivs(self, tuple(as_rational(v) for v in derivs))
        _set_base(self, None if base is None else as_rational(base))

    def require_order(self, n: int, role: str) -> None:
        check_order(n)
        if len(self.derivs) < n:
            raise SequenceTooShortError(role, n, len(self.derivs))

    def require_base(self, role: str) -> Fraction:
        if self.base is None:
            raise ValueError(f"{role} sequence needs a base value (0-th derivative)")
        return self.base


# The slot descriptors' setters that ``__init__`` stores through.
_set_derivs, _set_base = DerivativeSequence.derivs.__set__, DerivativeSequence.base.__set__
