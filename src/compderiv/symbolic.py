"""Polynomial expressions over one variable with rational coefficients:
parser, symbolic differentiator and exact evaluator.

This is the deliberately plain oracle: it computes the n-th derivative of
a composition by expanding psi about the point, then phi at that series,
into integer coefficients over one common denominator cut after order n.
``check_size`` bounds the bits of the values at the point by
``MAX_VALUE_BITS``.

``differentiate`` applies the ordinary sum, product and power rules to the
AST with constant folding only, and ``evaluate`` computes a value at a
point.  ``derivative_sequence_of`` turns an expression into its derivative
sequence by calling both once per order, with one derivative memo and one
value memo for the length of the call: each node is differentiated and
evaluated once, and the trees D^k share their nodes.

Every walk over an expression runs on an explicit stack: the folds go
through ``_fold``, which visits each distinct node object once, ``repr``
streams its pieces, and the parser nests on a stack too.  Neither size
nor depth meets the interpreter's recursion limit, and no interpreter
state is changed.  Nesting of '(' and unary '-' is bounded by
``MAX_DEPTH`` (256); length is not bounded.

Grammar (whitespace-insensitive, explicit '*' required):

    expr   := term (('+'|'-') term)* ;
    term   := factor ('*' factor)* ;
    factor := base ('^' UINT)? ;     (the exponents on any root-to-leaf
                                      path multiply to at most 2000)
    base   := RATIONAL | VAR | '(' expr ')' | '-' factor ;
    RATIONAL := UINT ('/' UINT)? ;   VAR := 'x' | 'y' ;
    UINT   := ('0'..'9')+ ;          (ASCII digits only, at most 4300)

'^' is non-associative (towers need parentheses) and binds tighter than a
unary minus applied to a factor.  A minus builds no node of its own: a
negated number is a negative ``Constant``, any other term a ``Mul`` by
``Constant(-1)``, so the AST has the polynomial ring's five node kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Callable

from .composition import DerivativeSequence
from .exact import MAX_LITERAL_DIGITS, as_rational, check_order, convolve, reduced

__all__ = [
    "Expr",
    "Constant",
    "Variable",
    "Add",
    "Mul",
    "Pow",
    "ParseError",
    "parse",
    "differentiate",
    "evaluate",
    "check_size",
    "nth_derivative_of_composition",
    "derivative_sequence_of",
    "taylor_polynomial",
]

MAX_DEPTH = 256
# Largest exponent after '^', and largest product of the exponents on a path
# through nested powers: the symbolic route expands a power by e convolutions.
MAX_EXPONENT = 2000
# Most bits ``check_size`` lets a value at the point have, a time bound: x^2000
# at a 19-digit point takes 2.6 s under ``derive --method all -n 100`` (5.9 s at 2**18).
MAX_VALUE_BITS = 2**17


class Expr:
    """Base class for the five polynomial AST nodes (see the module docstring).

    Nodes compare and hash by identity: two parses of the same text are
    two different nodes, and a fold's memo keyed by node keeps its nodes
    alive.  ``repr`` is structural, in the form dataclasses generate, but
    streams its pieces from an explicit stack, so it works at any size and
    depth the parser accepts.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[Expr | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces: list[Expr | str] = [f"{type(item).__qualname__}("]
            for i, (name, value) in enumerate(vars(item).items()):
                pieces.append(f", {name}=" if i else f"{name}=")
                pieces.append(value if isinstance(value, Expr) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Constant(Expr):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_rational(self.value))


@dataclass(frozen=True, eq=False, repr=False)
class Variable(Expr):
    name: str = "x"


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(f"Pow exponent must be non-negative: {self.exponent}")


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        wanted = " or ".join(expected)
        found = text[offset] if offset < len(text) else "end of input"
        super().__init__(f"syntax error at offset {offset}: expected {wanted}, found {found!r}")


class _Parser:
    """Read position over the text; every token read skips whitespace first."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.fail("unsigned integer")
        if self.pos - start > MAX_LITERAL_DIGITS:
            raise ParseError(self.text, start, (f"at most {MAX_LITERAL_DIGITS} digits",))
        return int(self.text[start:self.pos])

    def rational(self) -> Constant:
        numerator = self.uint()
        if not self.take("/"):
            return Constant(Fraction(numerator))
        denom_offset = self.pos
        denominator = self.uint()
        if denominator == 0:
            raise ParseError(self.text, denom_offset, ("nonzero denominator",))
        return Constant(Fraction(numerator, denominator))


def _negate(node: Expr) -> Expr:
    """-node: a negative constant, or a product by -1."""
    if isinstance(node, Constant):
        return Constant(-node.value)
    return Mul(Constant(Fraction(-1)), node)


def parse(text: str) -> Expr:
    """Parse an expression, or raise ParseError with offset and expectations.

    The grammar's nesting lives on an explicit stack.  Its bottom entry is
    the top level and each open '(' pushes another; both are lists
    ``[sum, negate, product, power]``: the sum read so far, whether the
    term being read follows a binary '-', that term's product so far, and
    the largest product of exponents on a path into any factor read at
    that level, an exponent 0 counting as 1.  Each unary '-' whose factor
    is still being read pushes ``None``.  The nesting depth is
    ``len(stack) - 1``.

    That product is at most ``MAX_EXPONENT``, a single exponent being the
    one-factor case, so a tower such as ``(x^2000)^2000`` is rejected at
    its outer exponent: it would expand to degree 4000000 and evaluate to
    millions of bits.
    """
    p = _Parser(text)
    stack: list[list[Any] | None] = [[None, False, None, 1]]
    seen_var: str | None = None
    while True:
        # Read one base, opening '(' and unary '-' on the way to it.
        char = p.peek()
        if "0" <= char <= "9":
            node: Expr = p.rational()
        elif char == "x" or char == "y":
            if seen_var is not None and seen_var != char:
                raise p.fail(f"variable {seen_var!r} (one variable per expression)")
            seen_var = char
            p.pos += 1
            node = Variable(char)
        elif char == "(" or char == "-":
            if len(stack) > MAX_DEPTH:
                raise ParseError(text, p.pos, ("shallower nesting",))
            p.pos += 1
            stack.append([None, False, None, 1] if char == "(" else None)
            continue
        else:
            raise p.fail("number", "variable", "'('", "'-'")
        power = 1  # the largest product of exponents on a path into node
        # Close what the base completes: its factor, the unary '-' around
        # that factor (whose own factor may take a '^' again), then the
        # term, the sum and the enclosing '(' when no operator follows.
        while True:
            if p.take("^"):
                p.skip_ws()
                offset, exponent = p.pos, p.uint()
                if max(exponent, 1) * power > MAX_EXPONENT:
                    wanted = f"an exponent of at most {MAX_EXPONENT // power}"
                    if power > 1:
                        wanted += f" (the exponents on a path multiply to at most {MAX_EXPONENT})"
                    raise ParseError(text, offset, (wanted,))
                node = Pow(node, exponent)
                power *= max(exponent, 1)
            level = stack[-1]
            if level is None:
                stack.pop()
                node = _negate(node)
                continue
            level[2] = node if level[2] is None else Mul(level[2], node)
            level[3] = max(level[3], power)
            if p.take("*"):
                break
            term = _negate(level[2]) if level[1] else level[2]
            level[0] = term if level[0] is None else Add(level[0], term)
            level[2] = None
            if p.take("+"):
                level[1] = False
                break
            if p.take("-"):
                level[1] = True
                break
            if len(stack) == 1:
                if p.peek() != "":
                    raise p.fail("'+'", "'-'", "'*'", "end of input")
                return level[0]
            if not p.take(")"):
                raise p.fail("')'")
            stack.pop()
            node, power = level[0], level[3]


def _fold(
    e: Expr,
    visit: Callable[[Any, dict[Expr, Any]], Any],
    done: dict[Expr, Any] | None = None,
) -> Any:
    """Post-order fold over the distinct nodes of ``e``, without recursion.

    ``visit(node, done)`` returns the node's value, reading each child's
    value as ``done[child]``.  A node object shared by several parents
    is visited once, so the cost is linear in the number of distinct nodes,
    also for the shared-node trees that repeated differentiation builds.

    ``done`` may hold the values of an earlier fold with the same
    ``visit``; its nodes are not visited again, and the new values are
    added to it.
    """
    if done is None:
        done = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        kind = type(node)
        if kind is Add or kind is Mul:
            if node.left not in done or node.right not in done:
                stack.append(node.right)
                stack.append(node.left)
                continue
        elif kind is Pow:
            if node.base not in done:
                stack.append(node.base)
                continue
        elif kind is not Constant and kind is not Variable:
            raise TypeError(f"not an expression node: {node!r}")
        stack.pop()
        done[node] = visit(node, done)
    return done[e]


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


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Constant(Fraction(1))
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        return Constant(base.value**exponent)
    return Pow(base, exponent)


def differentiate(e: Expr, memo: dict[Expr, Expr] | None = None) -> Expr:
    """Exact derivative by the sum, product and power rules.

    A subtree shared in ``e`` has one derivative object shared in the
    result, so repeated differentiation grows a shared-node tree.  ``memo``
    maps each node already differentiated to its derivative (see
    ``_fold``); it carries that sharing across calls.  Within the call,
    each sum or product of the same two child objects is built once: the
    product rule reaches A' * B' from both A' * B and A * B', and two
    copies would double the tree at every order.
    """
    built: dict[tuple[type, Expr, Expr], Expr] = {}

    def share(node: Expr) -> Expr:
        kind = type(node)
        if kind is Add or kind is Mul:
            return built.setdefault((kind, node.left, node.right), node)
        return node

    def visit(node: Expr, done: dict[Expr, Expr]) -> Expr:
        kind = type(node)
        if kind is Constant:
            return Constant(Fraction(0))
        if kind is Variable:
            return Constant(Fraction(1))
        if kind is Add:
            return share(_add(done[node.left], done[node.right]))
        if kind is Mul:
            return share(_add(
                share(_mul(done[node.left], node.right)),
                share(_mul(node.left, done[node.right])),
            ))
        if node.exponent == 0:
            return Constant(Fraction(0))
        outer = _mul(Constant(Fraction(node.exponent)), _pow(node.base, node.exponent - 1))
        return _mul(outer, done[node.base])

    return _fold(e, visit, memo)


def evaluate(
    e: Expr, at: Fraction | int | str, memo: dict[Expr, Fraction] | None = None
) -> Fraction:
    """Exact value of the expression at a rational point.

    ``memo`` maps each node already evaluated at this same point to its
    value (see ``_fold``).
    """
    point = as_rational(at)

    def visit(node: Expr, done: dict[Expr, Fraction]) -> Fraction:
        kind = type(node)
        if kind is Constant:
            return node.value
        if kind is Variable:
            return point
        if kind is Add:
            return done[node.left] + done[node.right]
        if kind is Mul:
            return done[node.left] * done[node.right]
        return done[node.base] ** node.exponent

    return _fold(e, visit, memo)


def _dense_scaled(
    e: Expr, variable: tuple[list[int], int], size: int
) -> tuple[list[int], int]:
    """The first ``size`` coefficients of the expansion, as (integers, denominator).

    Denominators are cleared once per node so the convolution inner loops
    run on plain integers.  The variable stands for ``variable``, itself
    such a pair: ``([p, q], q)`` is p/q + t, which expands about the point
    p/q, and another expression's expansion composes the two.  Every sum,
    product and power keeps ``size`` coefficients at most, each product
    loses its gcd with its denominator, and no list is mutated once built.
    """

    def visit(node: Expr, done: dict[Expr, tuple[list[int], int]]) -> tuple[list[int], int]:
        kind = type(node)
        if kind is Constant:
            return [node.value.numerator], node.value.denominator
        if kind is Variable:
            return variable
        if kind is Pow:
            base, den = done[node.base]
            out = [1]
            for _ in range(node.exponent):
                out = convolve(out, base, min(size, len(out) + len(base) - 1))
            return reduced(out, den**node.exponent)
        (left, da), (right, db) = done[node.left], done[node.right]
        if kind is Mul:
            return reduced(convolve(left, right, min(size, len(left) + len(right) - 1)), da * db)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return [a * fa + b * fb for a, b in zip_longest(left, right, fillvalue=0)], den

    return _fold(e, visit)


def _height(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def check_size(phi: Expr, psi: Expr, at: Fraction | int | str) -> None:
    """Raise ``ValueError`` if psi or phi(psi) at ``at`` may pass ``MAX_VALUE_BITS`` bits.

    A fold over psi, its variable standing for the point, then over phi,
    its variable standing for psi, bounds each node's bit height (the
    longer of numerator and denominator) without evaluating anything: a
    constant's own, a sum's terms' total plus 1, a product's total (so a
    negation, a product by -1, adds 1), a power's e times its base's (e = 0
    counting as 1).
    """

    def heights(e: Expr, variable: int) -> int:
        def visit(node: Expr, done: dict[Expr, int]) -> int:
            kind = type(node)
            if kind is Constant:
                bits = _height(node.value)
            elif kind is Variable:
                bits = variable
            elif kind is Add:
                bits = done[node.left] + done[node.right] + 1
            elif kind is Mul:
                bits = done[node.left] + done[node.right]
            else:
                bits = max(node.exponent, 1) * done[node.base]
            if bits > MAX_VALUE_BITS:
                raise ValueError(f"value of up to {bits} bits > MAX_VALUE_BITS = {MAX_VALUE_BITS}")
            return bits

        return _fold(e, visit)

    heights(phi, heights(psi, _height(as_rational(at))))


def nth_derivative_of_composition(
    phi: Expr, psi: Expr, n: int, at: Fraction | int | str
) -> Fraction:
    """D_y^n of phi(psi(y)) at a point, the long way around.

    Expands psi about the point, then phi at that series, each cut after
    t^n: truncated power-series arithmetic (Knuth, TAOCP Vol. 2, 4.7) on
    the expressions themselves, whose t^n coefficient times n! is the
    answer.  The routes stay independent: this one reads the AST through
    truncated series (``convolve``, ``reduced``), the four closed routes
    read ``derivative_sequence_of`` (``differentiate``, ``evaluate``), and
    the partition route calls neither ``convolve`` nor ``reduced``.

    ``derive`` calls ``check_size`` for every route; this route does not: the
    bound is loose on ``check``'s inputs (2.3 Mbit at n = 100, 0.2 s here).
    """
    check_order(n)
    point = as_rational(at)
    p, q = point.numerator, point.denominator
    coefficients, den = _dense_scaled(phi, _dense_scaled(psi, ([p, q], q), n + 1), n + 1)
    top = coefficients[n] if n < len(coefficients) else 0
    return Fraction(math.factorial(n) * top, den)


def derivative_sequence_of(
    e: Expr, at: Fraction | int | str, n: int
) -> DerivativeSequence:
    """Derivative values of an expression at a point, orders 1..n plus base.

    The n calls to ``differentiate`` share one derivative memo and the
    n + 1 calls to ``evaluate`` one value memo, both for this call only.
    A node of D^(k-1) seen at an earlier order keeps its derivative object,
    so the trees D^k share their nodes, and each order differentiates and
    evaluates only the nodes it adds: a product of 16 linear factors at
    n = 16 takes milliseconds, where fresh folds copied the shared subtrees
    at every order and took seconds.

    The four closed routes read their sequences from here; the symbolic
    route reads the AST through truncated series instead, so the two paths
    share no arithmetic and a fault on either makes the routes disagree.
    """
    check_order(n)
    derivatives: dict[Expr, Expr] = {}
    values: dict[Expr, Fraction] = {}
    base = evaluate(e, at, values)
    derivs = []
    for _ in range(n):
        e = differentiate(e, derivatives)
        derivs.append(evaluate(e, at, values))
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
    coefficients = seq.taylor_coefficients(len(seq.derivs))
    node: Expr = Constant(coefficients[-1])
    for c in reversed(coefficients[:-1]):
        node = _add(Constant(c), _mul(shift, node))
    return node
