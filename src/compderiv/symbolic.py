"""Polynomial expressions over one variable with rational coefficients:
parser, symbolic differentiator and exact evaluator.

This is the deliberately plain oracle: it computes the n-th derivative of
a composition by substituting one polynomial into the other, expanding
phi(psi(y)) into integer coefficients over one common denominator and
differentiating that coefficient list n times, exactly the preliminary
work the closed-form routes exist to avoid.  ``differentiate`` applies
the ordinary sum, product and power rules to the AST with constant
folding only; it turns an expression into its derivative sequence.

Grammar (whitespace-insensitive, explicit '*' required):

    expr   := term (('+'|'-') term)* ;
    term   := factor ('*' factor)* ;
    factor := base ('^' UINT)? ;
    base   := RATIONAL | VAR | '(' expr ')' | '-' factor ;
    RATIONAL := UINT ('/' UINT)? ;   VAR := 'x' | 'y' ;

'^' is non-associative (towers need parentheses) and binds tighter than a
unary minus applied to a factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .composition import DerivativeSequence
from .exact import as_rational, factorial

__all__ = [
    "Expr",
    "Constant",
    "Variable",
    "Add",
    "Mul",
    "Pow",
    "Neg",
    "ParseError",
    "parse",
    "format_expr",
    "differentiate",
    "evaluate",
    "substitute",
    "nth_derivative_of_composition",
    "derivative_sequence_of",
    "taylor_polynomial",
]

DEFAULT_MAX_DEPTH = 256


class Expr:
    """Base class for polynomial AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_rational(self.value))


@dataclass(frozen=True)
class Variable(Expr):
    name: str = "x"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(f"Pow exponent must be non-negative: {self.exponent}")


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        wanted = " or ".join(expected)
        found = text[offset] if offset < len(text) else "end of input"
        super().__init__(f"syntax error at offset {offset}: expected {wanted}, found {found!r}")


class _Parser:
    def __init__(self, text: str, max_depth: int):
        self.text = text
        self.pos = 0
        self.max_depth = max_depth
        self.depth = 0
        self.seen_var: str | None = None
        self.var_offset = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def fail(self, *expected: str) -> ParseError:
        self.skip_ws()
        return ParseError(self.text, self.pos, expected)

    def enter(self) -> None:
        self.depth += 1
        if self.depth > self.max_depth:
            raise ParseError(self.text, self.pos, ("shallower nesting",))

    def leave(self) -> None:
        self.depth -= 1

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.fail("unsigned integer")
        return int(self.text[start:self.pos])

    def expr(self) -> Expr:
        node = self.term()
        while True:
            if self.take("+"):
                node = Add(node, self.term())
            elif self.take("-"):
                node = Add(node, Neg(self.term()))
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while self.take("*"):
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.take("^"):
            node = Pow(node, self.uint())
        return node

    def base(self) -> Expr:
        char = self.peek()
        if char.isdigit():
            numerator = self.uint()
            if self.take("/"):
                denom_offset = self.pos
                denominator = self.uint()
                if denominator == 0:
                    raise ParseError(self.text, denom_offset, ("nonzero denominator",))
                return Constant(Fraction(numerator, denominator))
            return Constant(Fraction(numerator))
        if char in ("x", "y"):
            if self.seen_var is not None and self.seen_var != char:
                raise self.fail(f"variable {self.seen_var!r} (one variable per expression)")
            self.seen_var = char
            self.pos += 1
            return Variable(char)
        if char == "(":
            self.enter()
            self.pos += 1
            node = self.expr()
            if not self.take(")"):
                raise self.fail("')'")
            self.leave()
            return node
        if char == "-":
            self.enter()
            self.pos += 1
            node = Neg(self.factor())
            self.leave()
            return node
        raise self.fail("number", "variable", "'('", "'-'")


def parse(text: str, *, max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """Parse an expression, or raise ParseError with offset and expectations."""
    parser = _Parser(text, max_depth)
    # Each nesting level costs a handful of Python frames; make sure the
    # configured depth limit is reached before the interpreter's own.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 6 * max_depth + 200))
    try:
        node = parser.expr()
    finally:
        sys.setrecursionlimit(old_limit)
    if parser.peek() != "":
        raise parser.fail("'+'", "'-'", "'*'", "end of input")
    return node


# Precedence levels used by the printer: Add=1, Mul=2, Neg/Pow=3, atoms=4.
def _precedence(e: Expr) -> int:
    if isinstance(e, Add):
        return 1
    if isinstance(e, Mul):
        return 2
    if isinstance(e, (Neg, Pow)):
        return 3
    if isinstance(e, Constant) and e.value < 0:
        return 3
    return 4


def format_expr(e: Expr) -> str:
    """Render an AST as parseable text.

    For parser-produced trees, re-parsing the output reproduces the same
    structure.  Trees that contain folded negative constants (which the
    grammar has no literal for) re-parse to an evaluation-equal form.
    """

    def wrap(child: Expr, minimum: int) -> str:
        text = format_expr(child)
        return f"({text})" if _precedence(child) < minimum else text

    if isinstance(e, Constant):
        return str(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, 3)
    if isinstance(e, Pow):
        return f"{wrap(e.base, 4)}^{e.exponent}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, 2)}*{wrap(e.right, 3)}"
    if isinstance(e, Add):
        if isinstance(e.right, Neg):
            return f"{wrap(e.left, 1)} - {wrap(e.right.operand, 2)}"
        return f"{wrap(e.left, 1)} + {wrap(e.right, 2)}"
    raise TypeError(f"not an expression node: {e!r}")


# Smart constructors: constant folding only, so derivatives stay readable
# without ever rearranging non-constant structure.

def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value + b.value)
    if isinstance(a, Constant) and a.value == 0:
        return b
    if isinstance(b, Constant) and b.value == 0:
        return a
    return Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Constant) and not isinstance(a, Constant):
        a, b = b, a
    if isinstance(a, Constant):
        if a.value == 0:
            return Constant(Fraction(0))
        if a.value == 1:
            return b
        if isinstance(b, Constant):
            return Constant(a.value * b.value)
        if isinstance(b, Mul) and isinstance(b.left, Constant):
            return Mul(Constant(a.value * b.left.value), b.right)
    return Mul(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Constant):
        return Constant(-a.value)
    return Neg(a)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Constant(Fraction(1))
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        return Constant(base.value**exponent)
    return Pow(base, exponent)


def differentiate(e: Expr) -> Expr:
    """Exact derivative by the sum, product and power rules."""
    if isinstance(e, Constant):
        return Constant(Fraction(0))
    if isinstance(e, Variable):
        return Constant(Fraction(1))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Neg):
        return _neg(differentiate(e.operand))
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.left), e.right),
            _mul(e.left, differentiate(e.right)),
        )
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Constant(Fraction(0))
        outer = _mul(Constant(Fraction(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(outer, differentiate(e.base))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, at: Fraction | int | str) -> Fraction:
    """Exact value of the expression at a rational point."""
    point = as_rational(at)

    def walk(node: Expr) -> Fraction:
        if isinstance(node, Constant):
            return node.value
        if isinstance(node, Variable):
            return point
        if isinstance(node, Add):
            return walk(node.left) + walk(node.right)
        if isinstance(node, Mul):
            return walk(node.left) * walk(node.right)
        if isinstance(node, Neg):
            return -walk(node.operand)
        if isinstance(node, Pow):
            return walk(node.base) ** node.exponent
        raise TypeError(f"not an expression node: {node!r}")

    return walk(e)


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable with another expression."""
    if isinstance(e, Constant):
        return e
    if isinstance(e, Variable):
        return replacement
    if isinstance(e, Add):
        return Add(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Mul):
        return Mul(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Neg):
        return Neg(substitute(e.operand, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacement), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def _int_convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _dense_scaled(e: Expr, memo: dict[int, tuple[list[int], int]]) -> tuple[list[int], int]:
    """Expand to (integer coefficients, common denominator).

    Denominators are cleared once per node so the convolution inner loops
    run on plain integers; the pair represents the exact polynomial
    coefficients / denominator.  Subtrees are memoized by identity, which
    matters after substitution duplicates one shared inner AST.
    """
    found = memo.get(id(e))
    if found is not None:
        return found
    if isinstance(e, Constant):
        result = [e.value.numerator], e.value.denominator
    elif isinstance(e, Variable):
        result = [0, 1], 1
    elif isinstance(e, Add):
        left, da = _dense_scaled(e.left, memo)
        right, db = _dense_scaled(e.right, memo)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = [0] * max(len(left), len(right))
        for i, c in enumerate(left):
            out[i] += c * fa
        for i, c in enumerate(right):
            out[i] += c * fb
        result = out, den
    elif isinstance(e, Neg):
        inner, den = _dense_scaled(e.operand, memo)
        result = [-c for c in inner], den
    elif isinstance(e, Mul):
        left, da = _dense_scaled(e.left, memo)
        right, db = _dense_scaled(e.right, memo)
        result = _int_convolve(left, right), da * db
    elif isinstance(e, Pow):
        base, den = _dense_scaled(e.base, memo)
        out = [1]
        for _ in range(e.exponent):
            out = _int_convolve(out, base)
        result = out, den**e.exponent
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = result
    return result


def nth_derivative_of_composition(
    phi: Expr, psi: Expr, n: int, at: Fraction | int | str
) -> Fraction:
    """D_y^n of phi(psi(y)) at a point, the long way around.

    Substitutes psi into phi, expands the result into the integer
    coefficients of a single polynomial in y over one common denominator,
    differentiates that coefficient list n times (c_k y^k -> k c_k
    y^(k-1)), and evaluates it once by Horner's rule.  Computing every
    preceding derivative is the point: it shares no logic with the
    closed-form routes it cross-checks.
    """
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    point = as_rational(at)
    p, q = point.numerator, point.denominator
    coefficients, den = _dense_scaled(substitute(phi, psi), {})
    for _ in range(n):
        coefficients = [k * c for k, c in enumerate(coefficients) if k]
    # Horner over integers: num = sum c_k p^k q^(d-k) and scale = q^(d+1)
    # for degree d, so the value is num * q / (den * scale).
    num, scale = 0, 1
    for c in reversed(coefficients):
        num = num * p + c * scale
        scale *= q
    return Fraction(num * q, den * scale)


def derivative_sequence_of(
    e: Expr, at: Fraction | int | str, n: int
) -> DerivativeSequence:
    """Derivative values of an expression at a point, orders 1..n plus base."""
    if n < 1:
        raise ValueError(f"derivative order must be positive, got {n}")
    base = evaluate(e, at)
    derivs = []
    current = e
    for _ in range(n):
        current = differentiate(current)
        derivs.append(evaluate(current, at))
    return DerivativeSequence(derivs=tuple(derivs), base=base)


def taylor_polynomial(
    seq: DerivativeSequence, at: Fraction | int | str, name: str = "y"
) -> Expr:
    """A polynomial whose derivatives at ``at`` reproduce ``seq`` exactly.

    Inverse of ``derivative_sequence_of`` up to the sequence length:
    sum of d_k/k! * (var - at)**k, built in Horner form so later dense
    expansion stays cheap.  A missing base value contributes 0.
    """
    point = as_rational(at)
    shift = _add(Variable(name), Constant(-point))
    coefficients = [seq.base if seq.base is not None else Fraction(0)]
    coefficients += [
        seq.derivs[k - 1] / factorial(k) for k in range(1, len(seq.derivs) + 1)
    ]
    node: Expr = Constant(coefficients[-1])
    for c in reversed(coefficients[:-1]):
        node = _add(Constant(c), _mul(shift, node))
    return node
