from __future__ import annotations

import math
import sys

import pytest

from compderiv import cli, exact, symbolic
from compderiv.composition import DerivativeSequence

CHECK = ["check", "--max-n", "8", "--trials", "5"]
DERIVE = ["derive", "--phi", "x^3 + x", "--psi", "2*y^2 + y", "--at", "1/2", "-n", "4",
          "--method", "all"]


def _off_by_one(result):
    """``result`` with one unit added to its last entry."""
    if isinstance(result, int):
        return result + 1
    if isinstance(result, DerivativeSequence):
        return DerivativeSequence(_off_by_one(result.derivs), result.base)
    if isinstance(result, tuple) and isinstance(result[0], list):  # (integers, denominator)
        return _off_by_one(result[0]), result[1]
    return type(result)([*result[:-1], result[-1] + 1])


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (exact, "scaled", CHECK),
        (exact, "reduced", CHECK),
        (exact, "convolve", CHECK),
        (DerivativeSequence, "taylor_coefficients", CHECK),
        (math, "comb", CHECK),
        (math, "lcm", CHECK),
        (symbolic, "derivative_sequence_of", DERIVE),
    ],
    ids=[
        "scaled", "reduced", "convolve", "taylor_coefficients", "comb", "lcm",
        "derivative_sequence_of",
    ],
)
def test_a_one_unit_fault_in_a_shared_helper_makes_the_routes_disagree(
    capsys, monkeypatch, owner, name, argv
):
    """The five-way check reaches every helper that two or more routes read.

    The helper's result gets one unit added to its last entry, under its
    name in every module that holds it, and the command that passed
    before exits 3.  ``derivative_sequence_of`` is read by the four closed
    routes on expression input, so only the symbolic route sees its fault.

    Out of the oracle's reach: ``parse``, ``parse_rational`` and
    ``as_rational``, ``cli._random_sequence`` and the CLI's own comparison
    of the route values.  Every route reads them or their result, so a
    fault there makes no route disagree; their own tests pin them.
    """
    assert cli.main(argv) == 0
    real = getattr(owner, name)

    def faulty(*args, **kwargs):
        return _off_by_one(real(*args, **kwargs))

    monkeypatch.setattr(owner, name, faulty)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("compderiv") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, faulty)
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert "route disagreement" in capsys.readouterr().err
