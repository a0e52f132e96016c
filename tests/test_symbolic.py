from __future__ import annotations

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import compderiv.symbolic as symbolic
from compderiv.composition import DerivativeSequence, derivative_partition_sum
from compderiv.determinant import derivative_determinant
from compderiv.symbolic import (
    MAX_VALUE_BITS,
    Add,
    Constant,
    Expr,
    Mul,
    ParseError,
    Pow,
    Variable,
    _dense_scaled,
    check_size,
    derivative_sequence_of,
    differentiate,
    evaluate,
    nth_derivative_of_composition,
    parse,
    taylor_polynomial,
)
from oracles import evaluate_on_fractions, random_rational, random_sequence

X = Variable("x")
Y = Variable("y")


# --- parsing -----------------------------------------------------------------------

def test_nodes_compare_and_hash_by_identity():
    a, b = parse("x + 1"), parse("x + 1")
    assert a == a and a != b and len({a, b}) == 2
    assert repr(a) == repr(b)


def test_parse_power():
    assert repr(parse("x^2")) == repr(Pow(X, 2))


def test_parse_full_example():
    expected = Add(
        Add(Mul(Constant(Fraction(3, 2)), Pow(X, 4)), Mul(Constant(Fraction(-1)), X)),
        Constant(Fraction(5)),
    )
    assert repr(parse("3/2*x^4 - x + 5")) == repr(expected)


def test_parse_is_whitespace_insensitive():
    assert repr(parse("3/2*x^4 - x + 5")) == repr(parse("  3/2 * x ^ 4-x+5 "))


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse("x^-1")
    assert err.value.offset == 2
    assert any("integer" in e for e in err.value.expected)
    # Built directly, a negative power is refused as well.
    with pytest.raises(ValueError, match="Pow exponent must be non-negative"):
        Pow(X, -1)


@pytest.mark.parametrize("exponent", [True, False, 2.0, Fraction(2), "2", None])
def test_pow_rejects_an_exponent_that_is_not_an_int(exponent):
    # As in PhiPolynomial: True is not read as x^1, nor 2.0 left to fail in evaluate.
    with pytest.raises(TypeError) as info:
        Pow(X, exponent)
    assert str(info.value) == f"Pow exponent must be an int: {exponent!r}"


def test_parse_power_tower_needs_parentheses():
    with pytest.raises(ParseError):
        parse("x^2^3")
    assert repr(parse("(x^2)^3")) == repr(Pow(Pow(X, 2), 3))


AFTER_TOP_LEVEL = ("'+'", "'-'", "'*'", "end of input")
BASE = ("number", "variable", "'('", "'-'")


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        ("x^2^3", 3, AFTER_TOP_LEVEL),  # a second '^' on a power
        ("(x + 1", 6, ("')'",)),  # a missing ')'
        ("((x) * 2", 8, ("')'",)),
        ("x + 1)", 5, AFTER_TOP_LEVEL),  # a stray ')' at top level
        ("(x))", 3, AFTER_TOP_LEVEL),
        ("x +", 3, BASE),  # a trailing operator
        ("(x*", 3, BASE),
        ("x 5", 2, AFTER_TOP_LEVEL),  # junk after a complete expression
        ("(x) (x)", 4, AFTER_TOP_LEVEL),
        # Whitespace before each token is skipped, so the offset is the token's.
        ("( x + 1 ) ^ 2 ^ 3", 14, AFTER_TOP_LEVEL),
        (" ( x + 1 \t", 10, ("')'",)),
        ("x  ) ", 3, AFTER_TOP_LEVEL),
        ("x -  ", 5, BASE),
        (" \u00a0", 2, BASE),  # a space, then a no-break space: the end of input
    ],
)
def test_parse_closing_loop_errors_carry_offset_and_expectations(text, offset, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected) == (offset, expected)


def test_parse_skips_whitespace_around_every_operator():
    spaced = parse(" ( x + 1 / 2 ) ^ 2 * - x - 3 * x ^ 0 ")
    assert repr(spaced) == repr(parse("(x+1/2)^2*-x-3*x^0"))
    assert repr(spaced) == repr(Add(
        Mul(Pow(Add(X, Constant(Fraction(1, 2))), 2), Mul(Constant(Fraction(-1)), X)),
        Mul(Constant(Fraction(-1)), Mul(Constant(Fraction(3)), Pow(X, 0))),
    ))


def test_parse_bounds_the_exponent_product_on_every_path():
    # A single exponent is the one-factor case of the product bound.
    assert repr(parse("(x^2)^1000")) == repr(Pow(Pow(X, 2), 1000))
    assert repr(parse("(x^0)^2000")) == repr(Pow(Pow(X, 0), 2000))  # 0 counts as 1
    cases = [
        ("(x^2)^1001", 6, "an exponent of at most 1000"),
        ("-x^2^1001", 5, "an exponent of at most 1000"),
        ("(x^2000)^2000", 9, "an exponent of at most 1 "),
        ("(x^2000 + x)^2", 13, "an exponent of at most 1 "),
        ("((x^10)^10)^21", 12, "an exponent of at most 20"),
        ("(x^0)^2001", 6, "an exponent of at most 2000"),
        # A constant tower evaluates to millions of bits at any point.
        ("((2^2000)^2000)^2000", 10, "an exponent of at most 1 "),
        ("(2^2)^1001", 6, "an exponent of at most 1000"),
    ]
    for text, offset, expected in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected[0].startswith(expected)


def test_parse_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse("2x")


def test_parse_division_of_variables_rejected():
    with pytest.raises(ParseError):
        parse("x/2")


def test_parse_error_carries_offset_and_expectations():
    # Only the ASCII digits 0-9 are digits: ARABIC-INDIC DIGIT THREE and
    # SUPERSCRIPT TWO are rejected where they stand.
    cases = [("x + ", 4), ("\u0663/2*x", 0), ("x^\u00b2", 2), ("1/\u0663", 2), ("x^1\u0663", 3)]
    # A literal of more than 4300 digits is rejected at its first digit.
    long = "1" * 4301
    cases += [("x + " + long, 4), ("1/" + long, 2), ("x^" + long, 2), ("(" + long + ")", 1)]
    # An exponent above 2000 is rejected at its first digit, before any power is built.
    cases += [("x^2001", 2), ("x ^ 99999999999", 4), ("(x+1)^ 3000", 7), ("2^99999999999", 2)]
    for text, offset in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected
        assert "set_int_max_str_digits" not in str(err.value)
    assert repr(parse("9" * 4300)) == repr(Constant(Fraction(10**4300 - 1)))
    assert repr(parse("x^2000")) == repr(Pow(X, 2000))


def test_parse_rejects_mixed_variables():
    with pytest.raises(ParseError):
        parse("x*y")
    assert repr(parse("y*y")) == repr(Mul(Y, Y))


def test_parse_unary_minus_binds_looser_than_power():
    assert repr(parse("-x^2")) == repr(Mul(Constant(Fraction(-1)), Pow(X, 2)))
    # The negated factor may take a '^' again.
    assert repr(parse("-x^2^3")) == repr(Pow(Mul(Constant(Fraction(-1)), Pow(X, 2)), 3))


def test_parse_negated_number_is_a_negative_constant():
    assert repr(parse("-5/3")) == repr(Constant(Fraction(-5, 3)))
    assert repr(parse("x - 5")) == repr(Add(X, Constant(Fraction(-5))))
    assert repr(parse("-(2)^3")) == repr(Mul(Constant(Fraction(-1)), Pow(Constant(Fraction(2)), 3)))


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse("1/0")
    # The offset is the one just past '/', not the denominator's.
    with pytest.raises(ParseError) as err:
        parse("1/ 0")
    assert (err.value.offset, err.value.expected) == (2, ("nonzero denominator",))


def test_parse_whitespace_is_what_str_isspace_accepts():
    # Every whitespace code point lies below U+3001.
    expected = repr(parse("x+1"))
    offsets = {}
    for c in map(chr, range(0x3001)):
        if c.isspace():
            assert repr(parse(f"{c}x{c}+{c}1{c}")) == expected
            continue
        try:
            parse("x" + c)
        except ParseError as err:
            offsets[c] = err.offset
    others = (chr(k) for k in range(0x3001) if not chr(k).isspace())
    assert offsets == {c: 2 if c in "+-*^" else 1 for c in others}


def test_parse_depth_limit():
    deep = "(" * 40 + "x" + ")" * 40
    assert repr(parse(deep)) == repr(X)


def test_parse_default_depth_limit_is_reachable():
    depth = 256
    assert repr(parse("(" * depth + "x" + ")" * depth)) == repr(X)
    with pytest.raises(ParseError):
        parse("(" * (depth + 1) + "x" + ")" * (depth + 1))


def test_no_recursion_and_no_interpreter_state_changes():
    # Leave 100 frames of headroom and refuse any change to the limit: deep
    # nesting and long sums must not need the interpreter's stack.
    old_limit = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit

    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    set_limit(len(inspect.stack(0)) + 100)
    sys.setrecursionlimit = refuse
    try:
        assert evaluate(parse("(" * 256 + "x + 1" + ")" * 256), 2) == 3
        terms = 3000
        total = parse("+".join(["x"] * terms))
        assert evaluate(total, Fraction(1, 3)) == 1000
        assert evaluate(differentiate(total), 5) == terms
        again = parse("+".join(["x"] * terms))
        assert repr(again) == repr(total)
        assert repr(parse("+".join(["2"] + ["x"] * (terms - 1)))) != repr(total)
        assert repr(total) == "Add(left=" * (terms - 1) + "Variable(name='x')" + (
            ", right=Variable(name='x'))" * (terms - 1)
        )
        seq = derivative_sequence_of(total, 2, 2)
        assert (seq.base, seq.derivs) == (2 * terms, (terms, 0))
        # phi(psi(y)) = 3000 y^2
        assert nth_derivative_of_composition(total, parse("y^2"), 2, 7) == 2 * terms
    finally:
        sys.setrecursionlimit = set_limit
        set_limit(old_limit)


ROUND_TRIP_CORPUS = [
    "x",
    "y",
    "0",
    "5",
    "3/2",
    "-x",
    "--x",
    "-(x + 1)",
    "x + 1",
    "x - 1",
    "1 - x",
    "x + x + x",
    "x - x - x",
    "x*x",
    "2*x",
    "x*2",
    "x*x*x",
    "x^2",
    "x^0",
    "x^10",
    "2/3^2",
    "(x + 1)^2",
    "(x - 1)^3",
    "(-x)^2",
    "-x^2",
    "x^2 + x",
    "x^2 - x",
    "x^3 + x^2 + x + 1",
    "3/2*x^4 - x + 5",
    "2*y^2 + y",
    "x^3 + x",
    "(x + 1)*(x - 1)",
    "x*(x + 1)",
    "(x + 2)*x",
    "-(x*x)",
    "-5*x",
    "x*-5",
    "1/2*x^2 - 1/3*x + 1/6",
    "(2*x + 1)^4",
    "x^2*x^3",
    "7/5",
    "x - -x",
    "-(-(x + 1))",
    "(x)",
    "((x + 1))",
    "4*x^3 - 6*x^2 + 4*x - 1",
    "y^5 - y^4 + y^3 - y^2 + y - 1",
    "(y + 1)^2",
    "(y^2 + y)^3",
    "12/8*x",
    "x^2 - 2*x + 1",
    "0*x + 0",
    "(1 - x)*(1 + x)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(text):
    assert isinstance(parse(text), Expr)


def test_corpus_is_large_enough():
    assert len(ROUND_TRIP_CORPUS) >= 50


# --- differentiation ----------------------------------------------------------------

def test_power_rule():
    assert repr(differentiate(parse("x^3"))) == repr(Mul(Constant(Fraction(3)), Pow(X, 2)))


def test_constant_derivative_is_zero():
    assert repr(differentiate(parse("42"))) == repr(Constant(Fraction(0)))
    assert repr(differentiate(parse("5/7"))) == repr(Constant(Fraction(0)))


def test_variable_derivative_is_one():
    assert repr(differentiate(X)) == repr(Constant(Fraction(1)))


def test_term_by_term_example_evaluates_like_its_closed_form():
    derivative = differentiate(parse("3/2*x^4 - x + 5"))
    closed_form = parse("6*x^3 - 1")
    for point in [Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(7, 5)]:
        assert evaluate(derivative, point) == evaluate(closed_form, point)


def test_differentiate_is_additive_at_random_points():
    rng = random.Random(1500)
    pairs = [("x^3 + x", "2*x^2 - 5"), ("x^2", "x"), ("-x^4", "1/2*x^2 + 3")]
    for left_text, right_text in pairs:
        left, right = parse(left_text), parse(right_text)
        both = differentiate(Add(left, right))
        separate = Add(differentiate(left), differentiate(right))
        for _ in range(10):
            point = random_rational(rng)
            assert evaluate(both, point) == evaluate(separate, point)


def test_differentiate_neg_and_product():
    e = parse("x*(x + 2)")
    # product rule: 1*(x+2) + x*1 evaluates to 2x + 2
    for point in [Fraction(0), Fraction(3), Fraction(-5, 2)]:
        assert evaluate(differentiate(e), point) == 2 * point + 2


# --- evaluation ----------------------------------------------------------------------

def test_evaluate_square_at_three_halves():
    assert evaluate(parse("x^2"), Fraction(3, 2)) == Fraction(9, 4)


def test_evaluate_at_zero_gives_constant_term():
    assert evaluate(parse("x^3 - 4*x + 9"), 0) == 9


def test_evaluate_cubic():
    assert evaluate(parse("6*x^3 - 1"), 2) == 47


def test_evaluate_rejects_a_value_that_is_not_a_node():
    with pytest.raises(TypeError, match="not an expression node: 3"):
        evaluate(3, 1)


# --- composition -------------------------------------------------------------------

def test_composition_second_derivative_of_shifted_square():
    assert nth_derivative_of_composition(parse("x^2"), parse("y + 1"), 2, 0) == 2
    # Above the degree of phi(psi(y)) the truncated series has no n-th coefficient.
    assert nth_derivative_of_composition(parse("x^2"), parse("y + 1"), 3, 0) == 0
    assert nth_derivative_of_composition(parse("5/2"), parse("y + 1"), 1, 3) == 0


def test_composition_identity_outer_gives_inner_derivative():
    psi = parse("2*y^3 - y + 4")
    third = derivative_sequence_of(psi, Fraction(1, 2), 3).derivs[2]
    assert nth_derivative_of_composition(parse("x"), psi, 3, Fraction(1, 2)) == third
    assert third == 12


def test_composition_cross_checks_partition_route():
    phi, psi = parse("x^3 + x"), parse("2*y^2 + y")
    at = Fraction(1)
    psi_seq = derivative_sequence_of(psi, at, 4)
    assert psi_seq.base == 3
    phi_seq = derivative_sequence_of(phi, psi_seq.base, 4)
    expected = derivative_partition_sum(phi_seq, psi_seq, 4)
    assert nth_derivative_of_composition(phi, psi, 4, at) == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_oracle_agreement_on_random_polynomials(n):
    rng = random.Random(1600 + n)
    for _ in range(10):
        degree_phi = rng.randint(1, 5)
        degree_psi = rng.randint(1, 5)
        phi = _random_polynomial(rng, degree_phi, "x")
        psi = _random_polynomial(rng, degree_psi, "y")
        at = random_rational(rng)
        psi_seq = derivative_sequence_of(psi, at, n)
        phi_seq = derivative_sequence_of(phi, psi_seq.base, n)
        direct = nth_derivative_of_composition(phi, psi, n, at)
        assert direct == derivative_partition_sum(phi_seq, psi_seq, n)


@pytest.mark.parametrize("e", [0, 1, 2, 3, 5, 8, 13, 32, 33])
def test_power_expands_like_the_repeated_product(e):
    # (base)^e against the same base written as an e-factor product, as the
    # inner and as the outer function: every derivative up to the degree.
    rng = random.Random(1700 + e)
    for name, degree in (("y", 2), ("x", 3)):
        base = _random_polynomial(rng, degree, name)
        product = Constant(Fraction(1))
        if e:
            product = base
            for _ in range(e - 1):
                product = Mul(product, base)
        at = random_rational(rng)
        if name == "y":
            phi_pow = phi_mul = X
            psi_pow, psi_mul = Pow(base, e), product
        else:
            phi_pow, phi_mul = Pow(base, e), product
            psi_pow = psi_mul = _random_polynomial(rng, 1, "y")
        for n in range(1, e * degree + 2):
            assert nth_derivative_of_composition(
                phi_pow, psi_pow, n, at
            ) == nth_derivative_of_composition(phi_mul, psi_mul, n, at)


def test_composition_of_check_inputs_matches_the_determinant_route():
    # check's Taylor polynomials at an order where the full expansion took 1.3 s.
    n = 40
    rng = random.Random(4040)
    at = random_rational(rng)
    psi, phi = random_sequence(rng, n), random_sequence(rng, n)
    exprs = taylor_polynomial(phi, psi.base), taylor_polynomial(psi, at)
    assert nth_derivative_of_composition(*exprs, n, at) == derivative_determinant(phi, psi, n)


def test_value_size_is_bounded_before_evaluating():
    assert MAX_VALUE_BITS == 2**17
    message = r"^value of up to 12000000 bits > MAX_VALUE_BITS = 131072$"
    with pytest.raises(ValueError, match=message):
        check_size(parse("x^2000"), parse("(y + 1)^2000"), 1)  # (3 bits * 2000) * 2000
    # A power 0 does not hide the product under it.
    big = parse("(" + "*".join(["x^2000"] * 6) + ")^0")
    with pytest.raises(ValueError, match=r"^value of up to 204000 bits > MAX_VALUE_BITS"):
        check_size(big, Y, 2**50)
    check_size(parse("x^2"), parse("(y + 1)^2000"), 1)
    check_size(parse("x^9"), Y, "9" * 4300)


def test_value_size_bound_is_inclusive(monkeypatch):
    # At the point 3 (2 bits) every sum, product and power meets the bound,
    # also one under a power 0 and phi's variable standing for psi.
    monkeypatch.setattr(symbolic, "MAX_VALUE_BITS", 6)
    # A negation is a product by -1, whose height is 1.
    for phi, psi in [("x", "y + 7"), ("x", "y*y*3"), ("x", "-(y*y*1)"), ("x", "(y^3)^0"),
                     ("x^3", "y"), ("x + 1", "y + 1")]:
        check_size(parse(phi), parse(psi), 3)
    for phi, psi in [("x", "y + 15"), ("x", "y*y*4"), ("x", "y^4"), ("x", "(y^4)^0"),
                     ("x^4", "y"), ("x + 2", "y + 1"), ("x", "-(y^3)")]:
        with pytest.raises(ValueError, match=r"> MAX_VALUE_BITS = 6$"):
            check_size(parse(phi), parse(psi), 3)


def _random_polynomial(rng, degree, name):
    node = Constant(random_rational(rng))
    for k in range(1, degree + 1):
        node = Add(node, Mul(Constant(random_rational(rng)), Pow(Variable(name), k)))
    return node


# --- derivative sequences --------------------------------------------------------------

def test_sequence_of_square():
    s = derivative_sequence_of(parse("y^2"), 1, 3)
    assert s.base == 1
    assert s.derivs == (Fraction(2), Fraction(2), Fraction(0))


def test_sequence_of_constant():
    s = derivative_sequence_of(parse("7/3"), 5, 4)
    assert s.base == Fraction(7, 3)
    assert s.derivs == (0, 0, 0, 0)


def test_sequence_of_quadratic():
    s = derivative_sequence_of(parse("2*y^2 + y"), 1, 2)
    assert s.base == 3
    assert s.derivs == (Fraction(5), Fraction(4))


def _fresh_derivative_trees(e, n):
    """D^1 e .. D^n e with no memo: each order differentiates the whole tree again."""
    trees, current = [], e
    for _ in range(n):
        current = differentiate(current)
        trees.append(current)
    return trees


def _sequence_by_fresh_folds(e, at, n):
    """The derivative sequence with no memo across orders or calls."""
    derivs = tuple(evaluate(tree, at) for tree in _fresh_derivative_trees(e, n))
    return DerivativeSequence(derivs=derivs, base=evaluate(e, at))


@st.composite
def _shared_expressions(draw, max_degree=8):
    """An expression whose nodes read earlier ones, so subtrees are shared, with its degree."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pool = [(X, 1), (Constant(draw(small)), 0)]
    for _ in range(draw(st.integers(0, 8))):
        (a, da), (b, db) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["add", "mul", "neg", "pow", "constant"]))
        if kind == "add":
            node = (Add(a, b), max(da, db))
        elif kind == "mul":
            node = (Mul(a, b), da + db)
        elif kind == "neg":
            node = (Mul(Constant(Fraction(-1)), a), da)
        elif kind == "pow":
            exponent = draw(st.integers(0, 3))
            node = (Pow(a, exponent), da * exponent)
        else:
            node = (Constant(draw(small)), 0)
        if node[1] <= max_degree:
            pool.append(node)
    return pool[-1]


@given(_shared_expressions(), st.fractions(min_value=-2, max_value=2, max_denominator=4), st.data())
def test_sequence_matches_a_memo_free_loop(expression, at, data):
    e, degree = expression
    n = data.draw(st.integers(1, degree + 2), label="n")  # past the degree: trailing zeros
    assert derivative_sequence_of(e, at, n) == _sequence_by_fresh_folds(e, at, n)


@given(_shared_expressions(), _shared_expressions(), st.fractions(max_denominator=99))
def test_value_size_bounds_the_value(phi, psi, at):
    value = evaluate(phi[0], evaluate(psi[0], at))
    height = max(value.numerator.bit_length(), value.denominator.bit_length())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symbolic, "MAX_VALUE_BITS", height - 1)
        with pytest.raises(ValueError, match="MAX_VALUE_BITS"):
            check_size(phi[0], psi[0], at)


def _is_reduced(value):
    return (
        type(value) is Fraction
        and value.denominator > 0
        and math.gcd(value.numerator, value.denominator) == 1
    )


def _random_shared_expression(rng, max_degree=8):
    """A sum of the last three nodes of a pool whose nodes read earlier ones,
    with zero and negative constants and exponents 0-5, and its degree."""
    pool = [(X, 1), (Constant(Fraction(0)), 0), (Constant(random_rational(rng)), 0)]
    for _ in range(rng.randint(2, 10)):
        (a, da), (b, db) = rng.choice(pool), rng.choice(pool)
        kind = rng.choice(["add", "mul", "mul", "neg", "pow", "pow", "constant"])
        if kind == "add":
            node = (Add(a, b), max(da, db))
        elif kind == "mul":
            node = (Mul(a, b), da + db)
        elif kind == "neg":
            node = (Mul(Constant(Fraction(-1)), a), da)
        elif kind == "pow":
            exponent = rng.randint(0, 5)
            node = (Pow(a, exponent), da * exponent)
        else:
            node = (Constant(random_rational(rng)), 0)
        if node[1] <= max_degree:
            pool.append(node)
    (a, da), (b, db), (c, dc) = pool[-3:]
    return Add(Add(a, b), c), max(da, db, dc)


@pytest.mark.parametrize(
    "at", [Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(-1234567890123456789, 1000000007)]
)
def test_the_pair_fold_equals_a_fraction_tree_walk(at):
    # evaluate walks unreduced integer pairs; the oracle adds and multiplies
    # Fractions along every path of the tree, with no memo.  Constants over
    # 1..4 make sums whose denominators share a factor without being equal.
    rng = random.Random(3700)
    for _ in range(300):
        e, degree = _random_shared_expression(rng)
        value = evaluate(e, at)
        assert value == evaluate_on_fractions(e, at) and _is_reduced(value)
        n = rng.randint(1, degree + 2)  # past the degree: trailing zeros
        seq = derivative_sequence_of(e, at, n)
        assert _is_reduced(seq.base) and seq.base == value
        trees = _fresh_derivative_trees(e, n)
        assert seq.derivs == tuple(evaluate_on_fractions(tree, at) for tree in trees)
        assert all(_is_reduced(d) for d in seq.derivs)


@pytest.mark.parametrize(
    "text, at",
    [
        ("(7*x-1)^300*(x-1/7)^300", Fraction(1, 7)),  # a factor with a root at the point
        ("(7*x)^2000", Fraction(1, 7)),  # a power's base is 7/7 before its gcd
        ("(x+1/3)*(x-1/6) - x^2 - 1/6*x + 1/18", Fraction(-2, 5)),  # cancels to 0 at every order
    ],
)
def test_unreduced_pairs_reduce_to_the_fraction_tree_walk(text, at):
    # evaluate keeps sums and products unreduced and reduces a power's base
    # and the root; these are the cases where a missing reduction would show.
    e = parse(text)
    seq = derivative_sequence_of(e, at, 6)
    assert seq.base == evaluate_on_fractions(e, at) and _is_reduced(seq.base)
    trees = _fresh_derivative_trees(e, 6)
    assert seq.derivs == tuple(evaluate_on_fractions(tree, at) for tree in trees)
    assert all(_is_reduced(d) for d in seq.derivs)


def test_sequence_of_a_16_factor_product_matches_its_expansion():
    # Fresh folds copy the subtrees D^(k-1) shares with D^k at every order,
    # which took 19 s here; one memo per call differentiates each node once.
    e = parse("*".join(f"({k}*x - {k % 3 + 1})" for k in range(1, 17)))
    coefficients, den = _dense_scaled(e, ([0, 1], 1), 17)
    seq = derivative_sequence_of(e, 0, 16)
    assert seq.base == Fraction(coefficients[0], den)
    for k in range(1, 17):
        assert seq.derivs[k - 1] == math.factorial(k) * Fraction(coefficients[k], den)


def test_differentiate_shares_the_sums_and_products_it_builds():
    # The product rule on D^(k-1) builds each A^(i) * B^(j) from two parents;
    # without one object per pair of children the memo doubles per order.
    e, memo = parse("(x+1)^50*(x-1/3)^50"), {}
    for _ in range(16):
        e = differentiate(e, memo)
    assert len(memo) < 2000


def _distinct_nodes(roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            values = (getattr(node, name) for name in node.__slots__)
            stack.extend(v for v in values if isinstance(v, Expr))
    return len(seen)


@pytest.mark.parametrize(
    "text",
    [
        "(x - 5/4)*(x + 3)*x*(x - 1/2)*(x + 5/3)*(x - 2)*(x + 1/4)",  # like the bench's inputs
        "(3 - 2*x + 5*x^2)^3*(x + 1)^4 - 2*(x^2 - 1/3)^5 + x^0*(7/2*x)^2",
    ],
)
@pytest.mark.parametrize("n", [1, 2, 7])
def test_sequence_lists_each_node_once(monkeypatch, text, n):
    # differentiate, called through the module attribute that the bench
    # counts, lists D^(k-1)'s new nodes; the sequence evaluates those very
    # nodes, so only D^n is listed again, by evaluate.
    listings, trees = [], []
    new_nodes, differentiate_ = symbolic._new_nodes, symbolic.differentiate

    def listing(e, done):
        order = new_nodes(e, done)
        listings.append(len(order))
        return order

    def spy(e, memo=None):
        trees.append(differentiate_(e, memo))
        return trees[-1]

    monkeypatch.setattr(symbolic, "_new_nodes", listing)
    monkeypatch.setattr(symbolic, "differentiate", spy)
    e = parse(text)
    seq = derivative_sequence_of(e, Fraction(2, 3), n)
    assert len(trees) == n
    assert len(listings) == n + 1
    assert sum(listings) == _distinct_nodes([e, *trees])
    assert seq == _sequence_by_fresh_folds(e, Fraction(2, 3), n)


def test_constant_folding_equals_fraction_arithmetic():
    rng = random.Random(4000)
    pairs = []
    for _ in range(300):
        a = random_rational(rng, 30, 12)
        b = rng.choice([random_rational(rng, 30, 12), -a, 1 / a if a else a, Fraction(0)])
        pairs.append((a, b))
    for a, b in pairs:
        total = symbolic._add(Constant(a), Constant(b))
        assert type(total) is Constant and total.value == a + b and _is_reduced(total.value)
        product = symbolic._mul(Constant(a), Constant(b))
        assert type(product) is Constant and product.value == a * b and _is_reduced(product.value)
        scaled = symbolic._mul(Constant(a), Mul(Constant(b), X))
        if a:
            assert type(scaled) is Mul and scaled.right is X
            scaled = scaled.left
        assert scaled.value == a * b and _is_reduced(scaled.value)
    # Every leaf derivative is one of two shared objects.
    assert differentiate(parse("x")) is differentiate(Variable("y"))
    assert differentiate(parse("3/4")) is differentiate(parse("(y+1)^0")) is differentiate(Constant(1))


# --- Taylor realization ------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_taylor_polynomial_reproduces_sequence(n):
    rng = random.Random(1700 + n)
    seq = random_sequence(rng, n)
    at = random_rational(rng)
    poly = taylor_polynomial(seq, at)
    assert derivative_sequence_of(poly, at, n) == seq


def test_taylor_polynomial_without_base_uses_zero():
    seq = DerivativeSequence(derivs=(Fraction(3),))
    poly = taylor_polynomial(seq, 0)
    assert evaluate(poly, 0) == 0
    assert evaluate(poly, 2) == 6
