"""Time every route, and the jet and power layers, up a ladder of orders.

    python3 tools/ladder.py --out BENCH_31.json
    python3 tools/ladder.py --src ../other-checkout/src --orders 12,20 --calls 5
    python3 tools/ladder.py --out BENCH_32.json --compare BENCH_31.json

Stdlib only.  Imports ``compderiv`` from ``--src`` (default: this
checkout's ``src``) and times, at each order n of ``--orders`` and on
each input set below:
- every ``cli.ROUTES`` entry, through the table's own call; the symbolic
  route reads the Taylor polynomials of the same sequences, psi's about
  1/3 and phi's about psi's value;
- ``jet_compose`` on the order-n jets of phi and psi;
- ``lagrange_power_coefficient(psi, 5, n)``.

Input sets, drawn from ``random.Random(n)`` (base value first, then the n
derivatives, phi before psi):
- ``small``: p/q with |p| <= 4 and 1 <= q <= 4, zeros included;
- ``64-bit``: 64-bit numerators and denominators, every third value 0;
- ``64-bit-nonzero``: the same with no zeros.

Each cell is the median wall time of ``--calls`` calls, with that count.
A cell not run holds a skip marker with its reason: an order outside a
route's library bounds, or a time predicted above ``--budget`` seconds
from the cells run before it in that row (``predict``).  The budget bounds
the prediction, not the time a cell takes.
Route values at each (set, n) are compared, and ``agree`` records
whether all routes that ran gave the same value.  The JSON also holds
the machine facts and ``git rev-parse HEAD`` of the ``--src`` checkout.

``--compare FILE`` reads an earlier report and, once the JSON is written
to ``--out``, prints one line per cell of this run, matched to FILE's
cell by (subject, set, n): both medians and new/old, or the skip marker
of the side that did not run, or that FILE has no such cell.  The two
runs are not interleaved, so a ratio holds the drift of the machine
between them as well as the change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ORDERS = (12, 20, 30, 50, 100)
EXPONENT = 5  # lagrange_power_coefficient's m
AT = Fraction(1, 3)  # the symbolic route's expansion point for psi


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _wide(rng: random.Random, zeros: bool) -> Fraction:
    if zeros and rng.randrange(3) == 0:
        return Fraction(0)
    return Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**64))


SETS = {
    "small": _small,
    "64-bit": lambda rng: _wide(rng, True),
    "64-bit-nonzero": lambda rng: _wide(rng, False),
}


def machine_facts(src: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=src, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def subjects(n: int, phi, psi):
    """(name, bound, call) for each thing timed at order n; bound is a skip reason or None."""
    from compderiv import cli, lagrange_power_coefficient
    from compderiv.series import jet_compose, jet_from_derivatives
    from compderiv.symbolic import taylor_polynomial

    exprs = (taylor_polynomial(phi, psi.base), taylor_polynomial(psi, AT), AT)
    for name, route in cli.ROUTES.items():
        bound = None
        if n < route.lowest_order:
            bound = f"library bound: n < {route.lowest_order}"
        elif route.highest_order and n > route.highest_order[1]:
            bound = f"library bound: n > {route.highest_order[0]} = {route.highest_order[1]}"
        yield name, bound, (lambda r=route: r.call(phi, psi, n, exprs))
    jets = (jet_from_derivatives(phi, n), jet_from_derivatives(psi, n))
    yield "jet_compose", None, lambda: jet_compose(*jets)
    yield "lagrange_power_coefficient", None, lambda: lagrange_power_coefficient(psi, EXPONENT, n)


def predict(runs: list[tuple[int, float]], n: int) -> float:
    """Seconds a cell at order n is predicted to take from its row's cells
    run so far, (order, median seconds) in the order they ran.

    The last time times (n / its order)^e, with e the growth exponent
    between the last two cells, ln(t1/t0) / ln(n1/n0), but never below 3;
    e = 3 after one cell.  On 64-bit values some rows grow as n^4 from
    n = 30 to 50, and the cube alone then predicts a quarter of the time.
    """
    n1, t1 = runs[-1]
    e = 3.0
    if len(runs) > 1 and runs[-2][0] != n1:
        n0, t0 = runs[-2]
        e = max(e, math.log(t1 / t0) / math.log(n1 / n0))
    return t1 * (n / n1) ** e


def ladder(orders: list[int], calls: int, budget: float) -> tuple[list[dict], list[dict]]:
    from compderiv import DerivativeSequence, cli

    def sequence(draw, rng, n):
        base = draw(rng)
        return DerivativeSequence(tuple(draw(rng) for _ in range(n)), base)

    cells, agreement = [], []
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}  # (set, subject) -> [(n, median_s)]
    for set_name, draw in SETS.items():
        for n in orders:
            rng = random.Random(n)
            phi = sequence(draw, rng, n)
            psi = sequence(draw, rng, n)
            values = {}
            for name, bound, call in subjects(n, phi, psi):
                cell = {"subject": name, "set": set_name, "n": n}
                cells.append(cell)
                if not bound and (set_name, name) in runs:
                    predicted = predict(runs[set_name, name], n)
                    if predicted > budget:
                        m = runs[set_name, name][-1][0]
                        bound = f"predicted {predicted:.3g} s > budget {budget:g} s from n = {m}"
                if bound:
                    cell["skip"] = bound
                    continue
                times = []
                for _ in range(calls):
                    start = time.perf_counter()
                    value = call()
                    times.append(time.perf_counter() - start)
                cell.update(median_s=statistics.median(times), calls=calls)
                runs.setdefault((set_name, name), []).append((n, cell["median_s"]))
                if name in cli.ROUTES:
                    values[name] = value
            agreement.append(
                {"set": set_name, "n": n, "routes": sorted(values), "agree": len(set(values.values())) <= 1}
            )
    return cells, agreement


def compare(cells: list[dict], old_cells: list[dict]) -> list[str]:
    """A header, then one line per cell of ``cells`` against its match in ``old_cells``."""
    old = {(c["subject"], c["set"], c["n"]): c for c in old_cells}
    lines = [f"{'subject':<26} {'set':<14} {'n':>3} {'new ms':>10} {'old ms':>10} {'new/old':>7}"]
    for cell in cells:
        head = f"{cell['subject']:<26} {cell['set']:<14} {cell['n']:>3}"
        was = old.get((cell["subject"], cell["set"], cell["n"]))
        if was is None:
            lines.append(f"{head} not in the compared file")
        elif "skip" in cell or "skip" in was:
            side, reason = ("new", cell["skip"]) if "skip" in cell else ("old", was["skip"])
            lines.append(f"{head} skip ({side}): {reason}")
        else:
            new_s, old_s = cell["median_s"], was["median_s"]
            lines.append(f"{head} {new_s * 1e3:>10.3f} {old_s * 1e3:>10.3f} {new_s / old_s:>7.2f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = Path(__file__).resolve().parent.parent
    parser.add_argument("--src", type=Path, default=here / "src", help="the src directory to import")
    parser.add_argument("--orders", default=",".join(map(str, ORDERS)), help="comma-separated orders")
    parser.add_argument("--calls", type=int, default=3, help="calls per cell (k), default 3")
    parser.add_argument("--budget", type=float, default=10.0, help="seconds a cell may be predicted to take")
    parser.add_argument("--out", type=Path, help="JSON file to write (default: standard output)")
    parser.add_argument(
        "--compare", type=Path, metavar="FILE", help="an earlier report to print new/old against"
    )
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.compare and not args.out:
        parser.error("--compare prints to standard output, so it needs --out for the JSON")
    old_cells = json.loads(args.compare.read_text())["cells"] if args.compare else None
    orders = [int(text) for text in args.orders.split(",")]
    sys.path.insert(0, str(args.src.resolve()))
    cells, agreement = ladder(orders, args.calls, args.budget)
    report = {
        "machine": machine_facts(args.src),
        "orders": orders,
        "calls": args.calls,
        "budget_s": args.budget,
        "sets": list(SETS),
        "lagrange_exponent": EXPONENT,
        "cells": cells,
        "agreement": agreement,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    if old_cells is not None:
        print("\n".join(compare(cells, old_cells)))
    return 0 if all(row["agree"] for row in agreement) else 1


if __name__ == "__main__":
    sys.exit(main())
