from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from compderiv import cli, composition, exact, symbolic
from compderiv.composition import DerivativeSequence, lagrange_power_coefficient, partial_bell
from oracles import partial_bell_by_binomials, power_coefficient_on_fractions, random_rational

CHECK = ["check", "--max-n", "8", "--trials", "5"]
DERIVE = ["derive", "--phi", "x^3 + x", "--psi", "2*y^2 + y", "--at", "1/2", "-n", "4",
          "--method", "all"]

# (owner, name, command): a one-unit fault in owner.name makes the command exit 3.
FAULTS = [
    (exact, "scaled", CHECK),
    (exact, "reduced", CHECK),
    (exact, "convolve", CHECK),
    (exact, "rational_sum", CHECK),
    (exact, "taylor_scaled", CHECK),
    (composition, "_power_coefficient", CHECK),
    (math, "comb", CHECK),
    (math, "factorial", CHECK),
    (math, "lcm", CHECK),
    (math, "lcm", DERIVE),
    (symbolic, "derivative_sequence_of", DERIVE),
]
# A helper faulted under both commands has its DERIVE case named <name>-derive.
IDS = [f"{name}-derive" if argv is DERIVE and (owner, name, CHECK) in FAULTS else name
       for owner, name, argv in FAULTS]

# Functions two or more routes reach that have no fault case, each with the reason.
UNFAULTED = {
    "exact.check_order": "an order bound: it raises or returns None, so no value to fault",
    "exact.check_int": "a type and bound check: it raises or returns None, so no value to fault",
    "sequence.require_order": "a length bound: it raises or returns None, so no value to fault",
    "cli.<lambda>": "the ROUTES table's adapters, one per route, each passing its inputs on",
    "math.gcd": "read through Fraction by every route, so a fault there moves them all alike",
}

# Python 3.12 and later run list, set and dict comprehensions in their caller's
# frame, so the map leaves comprehension frames out on every version.
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _name(function) -> str:
    """``module.name`` of a compderiv function or a ``math`` builtin, as ``reach_map`` keys it."""
    return f"{function.__module__.removeprefix('compderiv.')}.{function.__name__}"


def reach_map() -> dict[str, set[str]]:
    """Each function a ``cli.ROUTES`` entry reaches, mapped to the routes that reach it.

    Every route runs on ``check``'s draws at n = 2, 5 and 9 under a
    ``sys.setprofile`` trace.  A compderiv function is keyed by its module
    and code name (Python 3.10 has no ``co_qualname``), a ``math`` builtin
    by ``math.<name>``.  The routes read the inputs ``check`` builds from
    its draws, built before the trace starts.
    """
    reached: dict[str, set[str]] = {}
    for n in (2, 5, 9):
        rng = random.Random(n)
        at = cli._random_rational(rng)
        psi = cli._random_sequence(rng, n)
        phi = cli._random_sequence(rng, n)
        inputs = cli._sequence_inputs(phi, psi, n, at)
        for route_name, route in cli.ROUTES.items():
            def profile(frame, event, arg, route_name=route_name):
                if event == "call":
                    module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
                    if module.startswith("compderiv.") and name not in _COMPREHENSIONS:
                        key = f"{module.removeprefix('compderiv.')}.{name}"
                        reached.setdefault(key, set()).add(route_name)
                elif event == "c_call" and getattr(arg, "__module__", None) == "math":
                    reached.setdefault(_name(arg), set()).add(route_name)

            sys.setprofile(profile)
            try:
                route.call(inputs, n)
            finally:
                sys.setprofile(None)
    return reached


def test_every_function_two_routes_reach_has_a_fault_case_or_a_reason():
    reached = reach_map()
    shared = {name for name, routes in reached.items() if len(routes) >= 2}
    faulted = {_name(getattr(owner, name)) for owner, name, _ in FAULTS}
    assert shared - faulted - set(UNFAULTED) == set()
    # An entry no longer reached by two routes comes off the list.
    assert set(UNFAULTED) <= shared
    # The symbolic route is the one the closed routes' shared sum and scaling must miss.
    assert "symbolic" not in reached["exact.rational_sum"] | reached["exact.taylor_scaled"]


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


@pytest.mark.parametrize("owner, name, argv", FAULTS, ids=IDS)
def test_a_one_unit_fault_in_a_shared_helper_makes_the_routes_disagree(
    capsys, monkeypatch, owner, name, argv
):
    """The five-way check reaches every helper that two or more routes read.

    The helper's result gets one unit added to it, or to its last entry,
    under its name in every module that holds it, and the command that
    passed before exits 3.  ``reach_map`` traces which routes read which
    helper, and a fault moves the routes that read a helper off those that
    do not.  ``derivative_sequence_of`` is read by the four closed routes on
    expression input, so only the symbolic route sees its fault.
    ``exact.taylor_scaled`` is read by Bell and the series route, and
    ``exact.rational_sum`` by every closed route, but by neither the
    symbolic route nor ``symbolic.taylor_polynomial``, which builds that
    route's inputs in ``check`` from Fractions of its own.
    ``composition._power_coefficient``, the [t^n] u**m pipeline that Bell
    shares with the power route, is read by Bell alone among the routes:
    its case shows that ``check`` guards that pipeline, though no ``check``
    route runs the power route itself.

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


@pytest.mark.parametrize("name", ["scaled", "taylor_scaled"])
def test_a_one_unit_fault_in_scaled_moves_partial_bell_off_its_oracle(monkeypatch, name):
    """``partial_bell_by_binomials`` reads none of the helpers ``partial_bell`` reads.

    The fault goes into ``exact.scaled`` or ``exact.taylor_scaled`` as above,
    the test oracles included, and B_{n,k} differs from the oracle's value
    for every k < n; B_{n,n} is psi'**n, which partial_bell reads from psi'
    itself.
    """
    rng = random.Random(3030)
    cases = []
    for n in range(2, 12):
        psi = DerivativeSequence(tuple(random_rational(rng) or 1 for _ in range(n)))
        cases += [(n, k, psi) for k in range(1, n)]
    assert all(partial_bell(*args) == partial_bell_by_binomials(*args) for args in cases)
    _add_a_fault(monkeypatch, exact, name)
    assert all(partial_bell(*args) != partial_bell_by_binomials(*args) for args in cases)


@pytest.mark.parametrize("name", ["scaled", "taylor_scaled"])
def test_a_one_unit_fault_in_scaled_moves_the_power_route_off_its_oracle(monkeypatch, name):
    """``power_coefficient_on_fractions`` reads none of the helpers
    ``lagrange_power_coefficient`` reads.

    With the fault in ``exact.scaled`` or ``exact.taylor_scaled``, W_last /
    W_0 is 1 / W_0 off, and so is the coefficient, by m * w_0**m / W_0, at
    every n and m != 0.
    """
    rng = random.Random(3131)
    cases = []
    for n in range(1, 12):
        psi = DerivativeSequence(tuple(random_rational(rng) for _ in range(n)), Fraction(-5, 3))
        cases += [(psi, m, n) for m in (-3, 2, 5)]
    assert all(lagrange_power_coefficient(*a) == power_coefficient_on_fractions(*a) for a in cases)
    _add_a_fault(monkeypatch, exact, name)
    assert all(lagrange_power_coefficient(*a) != power_coefficient_on_fractions(*a) for a in cases)
