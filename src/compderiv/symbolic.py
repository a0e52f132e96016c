"""Polynomial expressions over one variable with rational coefficients:
parser, symbolic differentiator and exact evaluator.

This is the deliberately plain oracle: it computes the n-th derivative of
a composition by expanding psi about the point, then phi at that series,
into integer coefficients over one common denominator cut after order n.
``check_size`` bounds the bits of the values at the point by
``MAX_VALUE_BITS``.

``differentiate`` applies the ordinary sum, product and power rules to the
AST with constant folding only, and ``evaluate`` computes a value at a
point on unreduced integer pairs, whose size ``check_size`` bounds: it
reduces only each power's base and the one ``Fraction`` it builds at the
root.  ``derivative_sequence_of`` turns an expression into its derivative
sequence by calling ``differentiate`` once per order and evaluating the
nodes each call adds to its memo: each node is listed, differentiated and
evaluated once, and the trees D^k share their nodes.  A ``differentiate``
call builds no node it throws away: its leaf derivatives are one
module-level zero and one one ``Constant``, a zero or one operand folds
without building, two constants fold on integers, and each sum or product
is looked up before it is built.

Every walk over an expression runs on an explicit stack: each walk,
``pickle`` and ``copy`` included, is one loop over ``_new_nodes``, which
lists each distinct node object once, children first; ``Record``'s
``repr`` streams its pieces, and the parser reads one token list, lexed
by one regex pass, and nests on a stack.  Neither size nor depth meets
the interpreter's recursion limit, and no interpreter state is changed.
Nesting of '(' and unary '-' is bounded by ``MAX_DEPTH`` (256); length
is not bounded.

Grammar (explicit '*' required).  A token is a UINT or one other
character, and whitespace (what ``str.isspace`` accepts) may stand
between any two tokens:

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
import re
from fractions import Fraction
from functools import partial
from itertools import islice, zip_longest
from typing import Any, Callable, Iterable

from .exact import (
    MAX_EXPONENT, MAX_LITERAL_DIGITS, as_rational, check_int, check_order, convolve, reduced
)
from .sequence import DerivativeSequence, Record

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
# One token: a run of ASCII digits or one other non-whitespace character.
_TOKEN = re.compile(r"\s*([0-9]+|\S)")
# Most bits ``check_size`` lets a value at the point have, a time bound at n = 100 only:
# x^2000 at a 19-digit point takes 2.6 s under ``derive --method all -n 100`` (5.9 s at
# 2**18), but inside it the partition route took 177 s at n = 60 (ROADMAP items 2 and 3).
MAX_VALUE_BITS = 2**17


class Expr(Record):
    """Base class for the five polynomial AST nodes (see the module docstring).

    Nodes are immutable ``Record``s, but compare and hash by identity: two
    parses of the same text are two different nodes, and a walk's memo
    keyed by node keeps its nodes alive.  ``__reduce__`` hands ``pickle``
    and ``copy`` the flat ``_new_nodes`` listing, each child as its index
    in it, so they work at any size and depth and keep shared nodes shared.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self) -> tuple[Callable[..., Expr], tuple[Any, ...]]:
        nodes = _new_nodes(self, {})
        index = {node: i for i, node in enumerate(nodes)}
        rows = []
        for node in nodes:
            fields = node._fields()
            children = tuple(index[v] for v in fields if isinstance(v, Expr))
            rows.append((type(node), children, tuple(v for v in fields if not isinstance(v, Expr))))
        return _rebuild_nodes, (tuple(rows),)


class Constant(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __init__(self, value: Fraction | int | str) -> None:
        _set_constant_value(self, value if type(value) is Fraction else as_rational(value))


class Variable(Expr):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str = "x") -> None:
        _set_variable_name(self, name)


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr) -> None:
        _set_add_left(self, left)
        _set_add_right(self, right)


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr) -> None:
        _set_mul_left(self, left)
        _set_mul_right(self, right)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    def __init__(self, base: Expr, exponent: int) -> None:
        check_int(exponent, "Pow exponent", 0)  # 2.0 or True is not read as an exponent
        _set_pow_base(self, base)
        _set_pow_exponent(self, exponent)


# The slot descriptors' setters that each node's ``__init__`` stores through.
_set_constant_value, _set_variable_name = Constant.value.__set__, Variable.name.__set__
_set_add_left, _set_add_right = Add.left.__set__, Add.right.__set__
_set_mul_left, _set_mul_right = Mul.left.__set__, Mul.right.__set__
_set_pow_base, _set_pow_exponent = Pow.base.__set__, Pow.exponent.__set__


def _rebuild_nodes(rows: tuple[tuple[type[Expr], tuple[int, ...], tuple[Any, ...]], ...]) -> Expr:
    """The root of ``Expr.__reduce__``'s rows, rebuilt children first through
    the constructors; every node's children are its leading fields."""
    nodes: list[Expr] = []
    for kind, children, rest in rows:
        nodes.append(kind(*[nodes[i] for i in children], *rest))
    return nodes[-1]


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        wanted = " or ".join(expected)
        found = text[offset] if offset < len(text) else "end of input"
        super().__init__(f"syntax error at offset {offset}: expected {wanted}, found {found!r}")


def _negate(node: Expr) -> Expr:
    """-node: a negative constant, or a product by -1."""
    if isinstance(node, Constant):
        return Constant(-node.value)
    return Mul(Constant(Fraction(-1)), node)


def parse(text: str) -> Expr:
    """Parse an expression, or raise ParseError with offset and expectations.

    One ``findall`` of ``_TOKEN`` lexes the text: each token is a run of
    ASCII digits or one other character, with the whitespace before it
    dropped, and an empty token ends the list.  Token offsets are found
    again only when an error is raised.

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
    tokens = _TOKEN.findall(text)
    tokens.append("")

    def fail(i: int, *expected: str, shift: int = 0) -> ParseError:
        """The error at token i's offset plus ``shift``; past the last token, at the text's end."""
        match = next(islice(_TOKEN.finditer(text), i, None), None)
        return ParseError(text, shift + (match.start(1) if match else len(text)), expected)

    def uint(i: int) -> int:
        token = tokens[i]
        if not "0" <= token[:1] <= "9":
            raise fail(i, "unsigned integer")
        if len(token) > MAX_LITERAL_DIGITS:
            raise fail(i, f"at most {MAX_LITERAL_DIGITS} digits")
        return int(token)

    i = 0
    stack: list[list[Any] | None] = [[None, False, None, 1]]
    seen_var: str | None = None
    while True:
        # Read one base, opening '(' and unary '-' on the way to it.
        token = tokens[i]
        if "0" <= token[:1] <= "9":
            numerator = uint(i)
            i += 1
            if tokens[i] == "/":
                denominator = uint(i + 1)
                if not denominator:
                    raise fail(i, "nonzero denominator", shift=1)
                i += 2
                node: Expr = Constant(Fraction(numerator, denominator))
            else:
                node = Constant(Fraction(numerator))
        elif token == "x" or token == "y":
            if seen_var is not None and seen_var != token:
                raise fail(i, f"variable {seen_var!r} (one variable per expression)")
            seen_var = token
            i += 1
            node = Variable(token)
        elif token == "(" or token == "-":
            if len(stack) > MAX_DEPTH:
                raise fail(i, "shallower nesting")
            i += 1
            stack.append([None, False, None, 1] if token == "(" else None)
            continue
        else:
            raise fail(i, "number", "variable", "'('", "'-'")
        power = 1  # the largest product of exponents on a path into node
        # Close what the base completes: its factor, the unary '-' around
        # that factor (whose own factor may take a '^' again), then the
        # term, the sum and the enclosing '(' when no operator follows.
        # Each pass reads one token and branches on it.
        while True:
            token = tokens[i]
            if token == "^":
                exponent = uint(i + 1)
                if max(exponent, 1) * power > MAX_EXPONENT:
                    wanted = f"an exponent of at most {MAX_EXPONENT // power}"
                    if power > 1:
                        wanted += f" (the exponents on a path multiply to at most {MAX_EXPONENT})"
                    raise fail(i + 1, wanted)
                node = Pow(node, exponent)
                power *= max(exponent, 1)
                i += 2
                token = tokens[i]
            level = stack[-1]
            if level is None:
                stack.pop()
                node = _negate(node)
                continue
            level[2] = node if level[2] is None else Mul(level[2], node)
            level[3] = max(level[3], power)
            if token == "*":
                i += 1
                break
            term = _negate(level[2]) if level[1] else level[2]
            level[0] = term if level[0] is None else Add(level[0], term)
            level[2] = None
            if token == "+" or token == "-":
                i += 1
                level[1] = token == "-"
                break
            if len(stack) == 1:
                if token:
                    raise fail(i, "'+'", "'-'", "'*'", "end of input")
                return level[0]
            if token != ")":
                raise fail(i, "')'")
            i += 1
            stack.pop()
            node, power = level[0], level[3]


def _new_nodes(e: Expr, done: dict[Expr, Any]) -> list[Expr]:
    """The distinct nodes of ``e`` not in ``done``, each listed after its children.

    The walk runs on an explicit stack, not recursion.  A node object shared
    by several parents is listed once, so the cost is linear in the number
    of distinct nodes, also for the shared-node trees that repeated
    differentiation builds.  ``listed`` maps each node seen to whether it
    is listed yet.  An operator seen for the first time is pushed again
    below its children, and listed when it is popped the second time; a
    child already seen, or in ``done``, is not pushed, and a node popped
    after it was listed is skipped.  The nodes form no cycle, so a child
    seen earlier is listed before its parent's second pop.

    Each caller writes ``done[node]`` for every listed node in order,
    reading its children's values from ``done``.  ``done`` may hold the
    values of an earlier call of the same caller; its nodes are not listed.
    """
    order: list[Expr] = []
    if e in done:
        return order
    listed: dict[Expr, bool] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        state = listed.get(node)
        if state is False:
            listed[node] = True
            order.append(node)
        elif state is None:
            kind = type(node)
            if kind is Add or kind is Mul:
                listed[node] = False
                stack.append(node)
                right, left = node.right, node.left
                if right not in done and right not in listed:
                    stack.append(right)
                if left not in done and left not in listed:
                    stack.append(left)
            elif kind is Pow:
                listed[node] = False
                stack.append(node)
                if node.base not in done and node.base not in listed:
                    stack.append(node.base)
            elif kind is Constant or kind is Variable:
                listed[node] = True
                order.append(node)
            else:
                raise TypeError(f"not an expression node: {node!r}")
    return order


# Smart constructors: constant folding only, so derivatives stay readable
# without ever rearranging non-constant structure.  A zero or a one operand
# is returned as it is, so folding it builds nothing; ``make`` builds what
# is left.  Two constants fold into one ``Fraction`` of integer products,
# which reduces it as ``Fraction``'s own ``+`` and ``*`` would.

def _add(a: Expr, b: Expr, make: Callable[[Expr, Expr], Expr] = Add) -> Expr:
    if type(b) is Constant and not b.value:
        return a
    if type(a) is Constant:
        if not a.value:
            return b
        if type(b) is Constant:
            x, y = a.value, b.value
            return Constant(Fraction(x.numerator * y.denominator + y.numerator * x.denominator,
                                     x.denominator * y.denominator))
    return make(a, b)


def _product(x: Fraction, y: Fraction) -> Constant:
    return Constant(Fraction(x.numerator * y.numerator, x.denominator * y.denominator))


def _mul(a: Expr, b: Expr, make: Callable[[Expr, Expr], Expr] = Mul) -> Expr:
    if type(b) is Constant and type(a) is not Constant:
        a, b = b, a
    if type(a) is Constant:
        value = a.value
        if not value:
            return a
        if value == 1:
            return b
        if type(b) is Constant:
            return _product(value, b.value)
        if type(b) is Mul and type(b.left) is Constant:
            return make(_product(value, b.left.value), b.right)
    return make(a, b)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Constant(Fraction(1))
    if exponent == 1:
        return base
    if type(base) is Constant:
        return Constant(base.value**exponent)
    return Pow(base, exponent)


# Every leaf derivative: nodes compare by identity, and a constant means the same in any memo.
_ZERO, _ONE = Constant(Fraction(0)), Constant(Fraction(1))


def differentiate(e: Expr, memo: dict[Expr, Expr] | None = None) -> Expr:
    """Exact derivative by the sum, product and power rules.

    A subtree shared in ``e`` has one derivative object shared in the
    result, so repeated differentiation grows a shared-node tree.  ``memo``
    maps each node already differentiated to its derivative (see
    ``_new_nodes``); it carries that sharing across calls.  Within the call,
    each sum or product of the same two child objects is built once, on
    the first lookup that misses: the product rule reaches A' * B' from
    both A' * B and A * B', and two copies would double the tree at every
    order.  Every leaf derivative is one module-level zero or one
    ``Constant``, shared by every call.
    """
    built: dict[tuple[type, Expr, Expr], Expr] = {}

    def share(kind: type, left: Expr, right: Expr) -> Expr:
        key = (kind, left, right)
        node = built.get(key)
        if node is None:
            node = built[key] = kind(left, right)
        return node

    add, mul = partial(share, Add), partial(share, Mul)
    done = {} if memo is None else memo
    for node in _new_nodes(e, done):
        kind = type(node)
        if kind is Mul:
            left, right = node.left, node.right
            done[node] = _add(_mul(done[left], right, mul), _mul(left, done[right], mul), add)
        elif kind is Add:
            done[node] = _add(done[node.left], done[node.right], add)
        elif kind is Variable:
            done[node] = _ONE
        elif kind is Constant or node.exponent == 0:
            done[node] = _ZERO
        else:
            outer = _mul(Constant(Fraction(node.exponent)), _pow(node.base, node.exponent - 1))
            done[node] = _mul(outer, done[node.base])
    return done[e]


def evaluate(e: Expr, at: Fraction | int | str) -> Fraction:
    """Exact value of the expression at a rational point.

    Each node's value is an unreduced ``(numerator, denominator)`` integer
    pair with a positive denominator: a sum is the two numerators over the
    lcm of the two denominators, a product the plain products, and a sum or
    product that is zero is ``(0, 1)``.  A power's base loses its gcd once,
    before it is raised.  The one ``Fraction`` built at the root does the
    only other reduction.  ``check_size`` bounds the bits of these pairs.
    """
    point = as_rational(at)
    done: dict[Expr, tuple[int, int]] = {}
    _evaluate_nodes(_new_nodes(e, done), (point.numerator, point.denominator), done)
    return Fraction(*done[e])


def _evaluate_nodes(
    nodes: Iterable[Expr], variable: tuple[int, int], done: dict[Expr, tuple[int, int]]
) -> None:
    """``evaluate``'s loop: ``done[node]`` for each node, its children already in ``done``."""
    gcd, lcm = math.gcd, math.lcm
    for node in nodes:
        kind = type(node)
        if kind is Add:
            (na, da), (nb, db) = done[node.left], done[node.right]
            den = lcm(da, db)
            num = na * (den // da) + nb * (den // db)
            done[node] = (num, den) if num else (0, 1)
        elif kind is Mul:
            (na, da), (nb, db) = done[node.left], done[node.right]
            num = na * nb
            done[node] = (num, da * db) if num else (0, 1)
        elif kind is Constant:
            done[node] = node.value.numerator, node.value.denominator
        elif kind is Variable:
            done[node] = variable
        else:
            num, den = done[node.base]
            g = gcd(num, den)
            done[node] = (num // g) ** node.exponent, (den // g) ** node.exponent


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
    done: dict[Expr, tuple[list[int], int]] = {}
    for node in _new_nodes(e, done):
        kind = type(node)
        if kind is Constant:
            done[node] = [node.value.numerator], node.value.denominator
        elif kind is Variable:
            done[node] = variable
        elif kind is Pow:
            base, den = done[node.base]
            out = [1]
            for _ in range(node.exponent):
                out = convolve(out, base, size)
            done[node] = reduced(out, den**node.exponent)
        else:
            (left, da), (right, db) = done[node.left], done[node.right]
            if kind is Mul:
                done[node] = reduced(convolve(left, right, size), da * db)
            else:
                den = math.lcm(da, db)
                fa, fb = den // da, den // db
                done[node] = [a * fa + b * fb for a, b in zip_longest(left, right, fillvalue=0)], den
    return done[e]


def _height(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def check_size(phi: Expr, psi: Expr, at: Fraction | int | str) -> None:
    """Raise ``ValueError`` if psi or phi(psi) at ``at`` may pass ``MAX_VALUE_BITS`` bits.

    A walk over psi, its variable standing for the point, then over phi,
    its variable standing for psi, bounds each node's bit height (the
    longer of numerator and denominator) without evaluating anything: a
    constant's own, a sum's terms' total plus 1, a product's total (so a
    negation, a product by -1, adds 1), a power's e times its base's (e = 0
    counting as 1).  These are also the most bits of the unreduced pair
    that ``evaluate`` keeps for the node.
    """

    def heights(e: Expr, variable: int) -> int:
        done: dict[Expr, int] = {}
        for node in _new_nodes(e, done):
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
            done[node] = bits
        return done[e]

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
    read ``derivative_sequence_of`` (``differentiate``, ``_evaluate_nodes``), and
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

    The n calls to ``differentiate`` share one derivative memo, for this
    call only.  After each, the keys it added, D^(k-1)'s nodes with no
    value yet in ``_new_nodes``' order, are evaluated into one value memo
    of unreduced pairs, whose size ``check_size``'s model bounds; only D^n
    is listed for it, so n + 1 trees take n + 1 node listings.
    The trees D^k share their nodes, and each order differentiates and
    evaluates only the nodes it adds: a product of 16 linear factors at
    n = 16 takes milliseconds.

    The four closed routes read their sequences from here; the symbolic
    route reads the AST through truncated series instead, so the two paths
    share no arithmetic and a fault on either makes the routes disagree.
    """
    check_order(n)
    at = as_rational(at)
    variable = at.numerator, at.denominator
    derivatives: dict[Expr, Expr] = {}
    values: dict[Expr, tuple[int, int]] = {}
    trees = [e]
    for _ in range(n):
        known = len(derivatives)
        trees.append(differentiate(trees[-1], derivatives))
        _evaluate_nodes(islice(derivatives, known, None), variable, values)
    _evaluate_nodes(_new_nodes(trees[-1], values), variable, values)
    base, *derivs = (Fraction(*values[tree]) for tree in trees)
    return DerivativeSequence(derivs=tuple(derivs), base=base)


def taylor_polynomial(seq: DerivativeSequence, at: Fraction | int | str) -> Expr:
    """A polynomial whose derivatives at ``at`` reproduce ``seq`` exactly.

    Inverse of ``derivative_sequence_of`` up to the sequence length:
    sum of d_k/k! * (y - at)**k, built in Horner form so later dense
    expansion stays cheap.  A missing base value contributes 0.  Each d_k/k!
    is one ``Fraction`` of its own, d_k's numerator over its denominator
    times a running factorial, from no helper that a closed route reads.
    """
    point = as_rational(at)
    shift = _add(Variable("y"), Constant(-point))
    coefficients = [seq.base or 0]
    factorial = 1
    for k, d in enumerate(seq.derivs, 1):
        factorial *= k
        coefficients.append(Fraction(d.numerator, d.denominator * factorial))
    node: Expr = Constant(coefficients[-1])
    for c in reversed(coefficients[:-1]):
        node = _add(Constant(c), _mul(shift, node))
    return node
