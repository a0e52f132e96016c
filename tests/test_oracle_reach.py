from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from compderiv import cli, exact, symbolic
from compderiv.composition import DerivativeSequence, partial_bell
from oracles import partial_bell_by_binomials, random_rational

CHECK = ["check", "--max-n", "8", "--trials", "5"]
DERIVE = ["derive", "--phi", "x^3 + x", "--psi", "2*y^2 + y", "--at", "1/2", "-n", "4",
          "--method", "all"]


def _off_by_one(result):
    """``result`` plus one unit: to the number itself, or to its last entry."""
    if isinstance(result, (int, Fraction)):
        return result + 1
    if isinstance(result, DerivativeSequence):
        return DerivativeSequence(_off_by_one(result.derivs), result.base)
    if isinstance(result, tuple) and isinstance(result[0], list):  # (integers, denominator)
        return _off_by_one(result[0]), result[1]
    return type(result)([*result[:-1], result[-1] + 1])


def _add_a_fault(monkeypatch, owner, name):
    """Add one unit to the result of ``owner.name`` under every name that holds
    it: on ``owner``, in every compderiv module and in the test oracles."""
    real = getattr(owner, name)

    def faulty(*args, **kwargs):
        return _off_by_one(real(*args, **kwargs))

    monkeypatch.setattr(owner, name, faulty)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("compderiv") or module_name == "oracles":
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, faulty)


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (exact, "scaled", CHECK),
        (exact, "reduced", CHECK),
        (exact, "convolve", CHECK),
        (exact, "rational_sum", CHECK),
        (DerivativeSequence, "taylor_coefficients", CHECK),
        (math, "comb", CHECK),
        (math, "factorial", CHECK),
        (math, "lcm", CHECK),
        (symbolic, "derivative_sequence_of", DERIVE),
    ],
    ids=[
        "scaled", "reduced", "convolve", "rational_sum", "taylor_coefficients", "comb",
        "factorial", "lcm", "derivative_sequence_of",
    ],
)
def test_a_one_unit_fault_in_a_shared_helper_makes_the_routes_disagree(
    capsys, monkeypatch, owner, name, argv
):
    """The five-way check reaches every helper that two or more routes read.

    The helper's result gets one unit added to it, or to its last entry,
    under its name in every module that holds it, and the command that
    passed before exits 3.  A ``sys.setprofile`` trace of each
    ``cli.ROUTES`` entry on ``check``'s draws at n = 2, 5 and 9 finds the
    readers, and a fault moves the routes that read a helper off those that
    do not: ``math.factorial`` is read by every route but the determinant,
    ``math.lcm`` by every route but the partition sum, ``exact.scaled`` by
    Bell, the determinant and the series route, ``exact.reduced`` by the
    determinant, the series and the symbolic route, ``rational_sum`` by the
    partition, Bell and determinant routes, ``exact.convolve`` by the
    series and symbolic routes, and ``math.comb`` by the determinant alone.
    ``derivative_sequence_of`` is read by the four closed routes on
    expression input, so only the symbolic route sees its fault.
    ``DerivativeSequence.taylor_coefficients`` is read by no route: ``check``
    builds the symbolic route's Taylor polynomials with it
    (``symbolic.taylor_polynomial``), so its fault reaches the symbolic
    route through its inputs alone, and ``check`` still exits 3.

    Out of the oracle's reach: ``parse``, ``parse_rational`` and
    ``as_rational``, ``cli._random_sequence`` and the CLI's own comparison
    of the route values.  Every route reads them or their result, so a
    fault there makes no route disagree; their own tests pin them.
    """
    assert cli.main(argv) == 0
    _add_a_fault(monkeypatch, owner, name)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert "route disagreement" in capsys.readouterr().err


def test_a_one_unit_fault_in_scaled_moves_partial_bell_off_its_oracle(monkeypatch):
    """``partial_bell_by_binomials`` reads none of the helpers ``partial_bell`` reads.

    The fault goes into ``exact.scaled`` as above, the test oracles included,
    and B_{n,k} differs from the oracle's value for every k < n; B_{n,n} is
    psi'**n, which partial_bell reads from psi' itself.
    """
    rng = random.Random(3030)
    cases = []
    for n in range(2, 12):
        psi = DerivativeSequence(tuple(random_rational(rng) or 1 for _ in range(n)))
        cases += [(n, k, psi) for k in range(1, n)]
    assert all(partial_bell(*args) == partial_bell_by_binomials(*args) for args in cases)
    _add_a_fault(monkeypatch, exact, "scaled")
    assert all(partial_bell(*args) != partial_bell_by_binomials(*args) for args in cases)
