"""The immutable records: the five expression nodes, ``DerivativeSequence``
and ``PhiPolynomial``.  Fields cannot be assigned, ``repr`` has one text
form, and ``pickle`` and ``copy`` rebuild equal values through the
constructors."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import compderiv
from compderiv import DerivativeSequence, PhiPolynomial, parse
from compderiv.symbolic import Add, Constant, Mul, Pow, Variable

X = Variable("x")
SEQUENCE = DerivativeSequence(derivs=(1, "1/2", -3), base=2)
POLYNOMIAL = PhiPolynomial({2: Fraction(1, 2), 0: -4})
ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
RECORDS = [
    Constant(Fraction(3, 4)),
    X,
    Add(X, Constant(1)),
    Mul(X, X),
    Pow(X, 2),
    SEQUENCE,
    POLYNOMIAL,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, X)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_repr_text():
    assert repr(parse("(x+1/2)*2")) == (
        "Mul(left=Add(left=Variable(name='x'), right=Constant(value=Fraction(1, 2))), "
        "right=Constant(value=Fraction(2, 1)))"
    )
    assert repr(SEQUENCE) == (
        "DerivativeSequence(derivs=(Fraction(1, 1), Fraction(1, 2), Fraction(-3, 1)), "
        "base=Fraction(2, 1))"
    )


def test_phi_polynomial_repr_reads_back():
    assert repr(POLYNOMIAL) == "PhiPolynomial(terms=((0, Fraction(-4, 1)), (2, Fraction(1, 2))))"
    assert eval(repr(POLYNOMIAL), {"PhiPolynomial": PhiPolynomial, "Fraction": Fraction}) == POLYNOMIAL


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_nodes_survive_pickle_and_copy(round_trip):
    # A long sum and the deepest nesting the parser accepts run on no recursion.
    for text in ["+".join(["x"] * 3000), "(x*" * 256 + "x" + ")" * 256]:
        long = parse(text)
        assert repr(round_trip(long)) == repr(long)
    e = parse("(x+1)*(x+1)")
    assert repr(round_trip(e)) == repr(e)
    shared = Add(e, Pow(e, 3))
    again = round_trip(shared)
    assert repr(again) == repr(shared)
    assert again.left is again.right.base  # one subtree, still shared


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_records_survive_pickle_and_copy(round_trip):
    again = round_trip(SEQUENCE)
    assert again == SEQUENCE and hash(again) == hash(SEQUENCE)
    again = round_trip(POLYNOMIAL)
    assert again == POLYNOMIAL and hash(again) == hash(POLYNOMIAL)


def test_a_record_equals_only_a_record_of_its_own_class():
    class Subclass(DerivativeSequence):
        pass

    same_fields = Subclass(SEQUENCE.derivs, SEQUENCE.base)
    assert same_fields._fields() == SEQUENCE._fields()
    for other in [SEQUENCE._fields(), same_fields, POLYNOMIAL]:
        assert SEQUENCE != other and other != SEQUENCE
    assert POLYNOMIAL != POLYNOMIAL.terms


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # Both cost every CLI process its import time and nothing uses them.
    src = str(Path(compderiv.__file__).resolve().parents[1])
    probe = "import sys, compderiv.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
