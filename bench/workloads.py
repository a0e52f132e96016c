"""The four benchmark workloads: seeded input generators, one op each, and
the checks every op's output must pass.

Every workload is a closed loop with one client in one thread: the next op
starts only after the previous one has returned.  An op calls compderiv
through its public entry points only (``compderiv.cli.main`` in-process, or
the library's route functions), looked up on the module at call time so
that the tracer's wrappers are seen.  The program receives only the
generated inputs; the seed stays in the harness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable

# Inputs of the recorded digests (see ``digests.json``).
DEFAULT_SEED = 0
GOLDEN_OPS = 1

# Partition, Bell and Lagrange enumerate every partition of n; above this
# order they are skipped and the skip is reported as a marker.
PARTITION_CAP = 30
CLOSED_ROUTES = {
    "partition": ("composition", "derivative_partition_sum"),
    "bell": ("composition", "derivative_bell"),
    "determinant": ("determinant", "derivative_determinant"),
    "series": ("series", "derivative_via_jets"),
}
POLYNOMIAL_ROUTES = ("determinant", "series")
EXPR_METHODS = ["partition", "bell", "determinant", "series", "symbolic"]


@dataclass(frozen=True)
class Workload:
    name: str
    # Scaled seconds one op took when the workload was sized (2-vCPU Xeon,
    # Python 3.11); a run of S seconds is S / op_seconds ops.
    op_seconds: float
    # Calibration kernels whose speed tracks this workload's (run.KERNELS).
    kernels: str
    make_inputs: Callable[[random.Random, int], list[Any]]
    warm_up: Callable[[ModuleType], None]
    run_op: Callable[[ModuleType, Any], dict[str, Any]]
    # Returns the problems found in one op's record (empty when correct).
    check: Callable[[ModuleType, Any, dict[str, Any]], list[str]]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"compderiv-bench/{workload}/{seed}")


def _small(rng: random.Random, p: int = 4, q: int = 4) -> Fraction:
    return Fraction(rng.randint(-p, p), rng.randint(1, q))


def _small_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))


def _wide(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**64))


def _wide_nonzero(rng: random.Random) -> Fraction:
    value = _wide(rng)
    return value if value else Fraction(1, 2**63 + 1)


def _call_cli(cd: ModuleType, argv: list[str]) -> dict[str, Any]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cd.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv by exiting
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# -- check_sweep -------------------------------------------------------------
# Why: the continuous verification harness users run, the same shape as the
# acceptance five-way sweep (48.7 s of its 60 s gate).  Small orders and small
# rationals.  Loads: symbolic (nth_derivative_of_composition, about 75 % of
# the time) and cli.  Leaves idle: partition enumeration is trivial at
# n <= 8, so a partitions or closed-form optimisation should show no change.

CHECK_MAX_N, CHECK_TRIALS = 8, 10


def _check_inputs(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2**32) for _ in range(count)]


def _check_argv(seed: int, trials: int = CHECK_TRIALS) -> list[str]:
    return ["check", "--max-n", str(CHECK_MAX_N), "--trials", str(trials),
            f"--seed={seed}", "--json"]


def _check_warm_up(cd: ModuleType) -> None:
    _call_cli(cd, _check_argv(DEFAULT_SEED, trials=1))


def _check_op(cd: ModuleType, seed: int) -> dict[str, Any]:
    return _call_cli(cd, _check_argv(seed))


def _check_expected(seed: int) -> dict[str, Any]:
    orders = []
    for n in range(1, CHECK_MAX_N + 1):
        routes = ["partition", "bell", "series", "symbolic"]
        if n >= 2:
            routes.insert(2, "determinant")
        orders.append({"n": n, "trials": CHECK_TRIALS, "routes": routes, "ok": True})
    return {"max_n": CHECK_MAX_N, "trials": CHECK_TRIALS, "seed": seed,
            "orders": orders, "ok": True}


def _check_check(cd: ModuleType, seed: int, record: dict[str, Any]) -> list[str]:
    problems = _cli_problems(record)
    if not problems and json.loads(record["stdout"]) != _check_expected(seed):
        problems.append(f"check --seed={seed}: unexpected report {record['stdout'][:200]}")
    return problems


def _cli_problems(record: dict[str, Any]) -> list[str]:
    if record["code"] != 0:
        return [f"{record['argv'][0]} exited {record['code']}: {record['stderr'][-300:]}"]
    try:
        json.loads(record["stdout"])
    except json.JSONDecodeError:
        return [f"{record['argv'][0]}: stdout is not JSON: {record['stdout'][:200]}"]
    return []


# -- expr_derive -------------------------------------------------------------
# Why: the only workload that reaches symbolic.parse and
# symbolic.derivative_sequence_of, the raw-AST path measured at 81.5 s for a
# 10-factor product.  Seven factors keep an op near 0.2 s, because the cost
# grows exponentially with the factor count.  Loads: symbolic (parse,
# derivative_sequence_of, differentiate) and cli.  Leaves idle: nothing heavy
# in partitions, composition, determinant or series at n = 7.

EXPR_ORDER, EXPR_FACTORS = 7, 7


def _linear_product(rng: random.Random, var: str) -> str:
    factors = []
    for _ in range(EXPR_FACTORS):
        root = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if root > 0:
            factors.append(f"({var} - {root})")
        elif root < 0:
            factors.append(f"({var} + {-root})")
        else:
            factors.append(var)
    return "*".join(factors)


def _small_polynomial(rng: random.Random, var: str, degree: int) -> str:
    coeffs = [_small(rng) for _ in range(degree)] + [_small_nonzero(rng)]
    text = ""
    for k in range(degree, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else f"{abs(c)}*{var}" + (f"^{k}" if k > 1 else "")
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" + {body}" if c > 0 else f" - {body}"
    return text


def _derive_argv(phi: str, psi: str, at: Fraction, n: int = EXPR_ORDER) -> list[str]:
    return ["derive", f"--phi={phi}", f"--psi={psi}", f"--at={at}", "-n", str(n),
            "--method", "all", "--json"]


def _expr_inputs(rng: random.Random, count: int) -> list[list[list[str]]]:
    ops = []
    for _ in range(count):
        product_outer = _derive_argv(
            _linear_product(rng, "x"), _small_polynomial(rng, "y", 2), _small(rng))
        product_inner = _derive_argv(
            _small_polynomial(rng, "x", 3), _linear_product(rng, "y"), _small(rng))
        ops.append([product_outer, product_inner])
    return ops


def _expr_warm_up(cd: ModuleType) -> None:
    _call_cli(cd, _derive_argv("(x - 1)*(x + 1/2)", "y^2 + y", Fraction(1, 3)))


def _expr_op(cd: ModuleType, calls: list[list[str]]) -> dict[str, Any]:
    return {"calls": [_call_cli(cd, argv) for argv in calls]}


def _expr_check(cd: ModuleType, calls: list[list[str]], record: dict[str, Any]) -> list[str]:
    problems = []
    for call in record["calls"]:
        found = _cli_problems(call)
        if found:
            problems += found
            continue
        payload = json.loads(call["stdout"])
        values = payload.get("values", {})
        if list(values) != EXPR_METHODS:
            problems.append(f"derive: routes {list(values)}, expected {EXPR_METHODS}")
        elif payload.get("agree") is not True or len(set(values.values())) != 1:
            problems.append(f"derive: routes disagree: {values}")
    return problems


# -- high_order and wide_rationals -------------------------------------------


def _pair_inputs(
    draw: Callable[[random.Random], Fraction],
    draw_nonzero: Callable[[random.Random], Fraction],
    orders: tuple[int, ...],
) -> Callable[[random.Random, int], list[Any]]:
    # Inputs are plain Fraction tuples (base value first): the program is
    # imported only after they are drawn, and the op builds its
    # DerivativeSequences from them.  psi's base is nonzero because the
    # Lagrange exponent m is negative.
    def make(rng: random.Random, count: int) -> list[Any]:
        ops = []
        for _ in range(count):
            phi = tuple(draw(rng) for _ in range(max(orders) + 1))
            psi = (draw_nonzero(rng),) + tuple(draw(rng) for _ in range(max(orders)))
            # A positive m would zero every term with more than m parts and
            # make the op cost bimodal.
            m = rng.choice([-4, -3, -2, -1])
            ops.append((phi, psi, m, orders))
        return ops

    return make


def _sequence(cd: ModuleType, values: tuple[Fraction, ...]) -> Any:
    return cd.composition.DerivativeSequence(derivs=values[1:], base=values[0])


def _skip(route: str, n: int) -> str:
    return f"skipped: {route} at n={n} is above the cap n={PARTITION_CAP}"


def _pair_op(cd: ModuleType, op: Any) -> dict[str, Any]:
    phi_values, psi_values, m, orders = op
    phi, psi = _sequence(cd, phi_values), _sequence(cd, psi_values)
    rungs = []
    for n in orders:
        capped = n > PARTITION_CAP
        values: dict[str, Any] = {}
        for route, (module, fn) in CLOSED_ROUTES.items():
            if capped and route not in POLYNOMIAL_ROUTES:
                values[route] = _skip(route, n)
            else:
                values[route] = getattr(getattr(cd, module), fn)(phi, psi, n)
        if capped:
            values["lagrange"] = _skip("lagrange", n)
        else:
            values["lagrange"] = cd.composition.lagrange_power_coefficient(psi, m, n)
        rungs.append({"n": n, "values": values})
    return {"m": m, "rungs": rungs}


def _pair_check(cd: ModuleType, op: Any, record: dict[str, Any]) -> list[str]:
    _phi_values, psi_values, m, orders = op
    psi = _sequence(cd, psi_values)
    problems = []
    if [rung["n"] for rung in record["rungs"]] != list(orders):
        problems.append(f"rungs {[r['n'] for r in record['rungs']]}, expected {list(orders)}")
    for rung in record["rungs"]:
        n, values = rung["n"], rung["values"]
        computed = {k: v for k, v in values.items() if isinstance(v, Fraction)}
        skipped = {k for k, v in values.items() if isinstance(v, str)}
        expected_skips = set() if n <= PARTITION_CAP else {"partition", "bell", "lagrange"}
        if skipped != expected_skips or set(values) != set(CLOSED_ROUTES) | {"lagrange"}:
            problems.append(f"n={n}: skipped {sorted(skipped)}, expected {sorted(expected_skips)}")
        routes = {k: v for k, v in computed.items() if k != "lagrange"}
        if len(set(routes.values())) != 1:
            problems.append(f"n={n}: routes disagree: {routes}")
        if "lagrange" in computed:
            # D^n(psi**m) through the general partition sum with phi = x**m.
            power = cd.composition.power_derivatives(m, psi.base, n)
            reference = cd.composition.derivative_partition_sum(power, psi, n)
            if computed["lagrange"] * math.factorial(n) != reference:
                problems.append(f"n={n}, m={m}: lagrange * n! != partition sum of x**m")
    return problems


def _pair_warm_up(orders: tuple[int, ...]) -> Callable[[ModuleType], None]:
    def warm_up(cd: ModuleType) -> None:
        for n in orders:
            if n <= PARTITION_CAP:
                cd.partitions.enumerate_multiplicity_vectors(n)
        seq = cd.composition.DerivativeSequence(derivs=(Fraction(1, 2),) * 4, base=Fraction(1))
        for module, fn in CLOSED_ROUTES.values():
            getattr(getattr(cd, module), fn)(seq, seq, 4)
        cd.composition.lagrange_power_coefficient(seq, -2, 4)

    return warm_up


# high_order
# Why: cost driven by the number of partitions; a pair of small rationals
# (|p| <= 4, q <= 4) run up the ladder n = 20, 30 (partition, Bell,
# determinant, series, Lagrange) and n = 50 (determinant and series; the
# others are skipped above n = 30 with a marker).  Loads: partitions and
# composition (most of the time at n = 30), determinant and series at n = 50.
# Leaves idle: symbolic and cli.
HIGH_ORDERS = (20, 30, 50)

# wide_rationals
# Why: cost driven by coefficient size, not by partitions: one pair at n = 20
# whose values have 64-bit numerators and denominators (results near 5.5 kbit).
# Against high_order's n = 20 rung, series gets about 7x dearer and partition
# only about 2.5x, so a change like common-denominator integer scaling shows
# its cost here when the lcm grows.
# Loads: the same layers as high_order (series, determinant, composition).
# Leaves idle: symbolic and cli.
WIDE_ORDERS = (20,)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("check_sweep", 0.55, "mixed", _check_inputs, _check_warm_up, _check_op, _check_check),
        Workload("expr_derive", 0.30, "mixed", _expr_inputs, _expr_warm_up, _expr_op, _expr_check),
        Workload(
            "high_order", 2.0, "mixed", _pair_inputs(_small, _small_nonzero, HIGH_ORDERS),
            _pair_warm_up(HIGH_ORDERS), _pair_op, _pair_check,
        ),
        Workload(
            "wide_rationals", 0.38, "wide", _pair_inputs(_wide, _wide_nonzero, WIDE_ORDERS),
            _pair_warm_up(WIDE_ORDERS), _pair_op, _pair_check,
        ),
    )
}


def canonical(record: Any) -> Any:
    """The record with every Fraction as its exact text, for digests and output."""
    if isinstance(record, Fraction):
        return str(record)
    if isinstance(record, dict):
        return {k: canonical(v) for k, v in record.items()}
    if isinstance(record, (list, tuple)):
        return [canonical(v) for v in record]
    return record


def digest(records: list[dict[str, Any]]) -> str:
    text = json.dumps(canonical(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
