"""Time every route, and the jet and power layers, up a ladder of orders.

    python3 tools/ladder.py --out BENCH_31.json
    python3 tools/ladder.py --orders 12,20 --calls 5
    python3 tools/ladder.py --baseline ../parent --out BENCH.json

Stdlib only.  Imports ``compderiv`` from the ``src`` of the checkout that
holds this script (to time another checkout, run that checkout's own
``tools/ladder.py``) and times, at each order n of ``--orders`` (1 to
the tree's ``exact.MAX_ORDER``) and on each input set below:
- every ``cli.ROUTES`` entry, through the table's own call, on the
  inputs ``check`` builds from its draws: the symbolic route reads the
  Taylor polynomials of the same sequences, psi's about 1/3 and phi's
  about psi's value;
- ``jet_compose`` on the order-n jets of phi and psi;
- ``lagrange_power_coefficient(psi, 5, n)``.

Input sets, drawn from ``random.Random(n)`` (base value first, then the n
derivatives, phi before psi):
- ``small``: p/q with |p| <= 4 and 1 <= q <= 4, zeros included;
- ``64-bit``: 64-bit numerators and denominators, every third value 0;
- ``64-bit-nonzero``: the same with no zeros.

Each cell is the median wall time of ``--calls`` calls, with that count,
and the calls' times in ``times_s``, in the order they ran.
A cell not run holds a skip marker with its reason.  A time predicted
above ``--budget`` seconds from the cells run before it in that row
(``predict``) skips the cell before any call.  Otherwise a ``ValueError``
from the cell's first call on either tree, the library's own check of its
inputs (the partition sum above ``MAX_PARTITION_ORDER``, the determinant
below order 2), marks it ``library bound: <message>``, and the cell runs
on neither tree; any other exception ends the run.  The budget bounds the
prediction, not the time a cell takes, and the prediction is its only
time guard on an order the library admits: the first cell of a row runs
whatever it costs.  A change that lifts a library bound must keep a skip
of its own here for the orders it opens.
Route values at each (set, n) are compared, and ``agree`` records
whether all routes that ran gave the same value.  The JSON also holds
the machine facts, ``git rev-parse HEAD`` of this checkout and
whether ``git status --porcelain`` lists any change there (null outside
a git checkout).

``--baseline ROOT`` times the same cells on a second tree too, e.g. a
``git archive`` of the parent commit, whose ``ROOT/src/compderiv`` is
imported in the same process as ``compderiv_baseline``.  Its ``cli``
must have ``_sequence_inputs`` and ``ROUTES``, of whose entries only
``call`` is read; a ROOT without ``src/compderiv/__init__.py`` or such a
``cli`` is an argument error, before any cell.  Each tree builds its own
inputs from the same draws.  A cell runs ``--calls`` rounds, each
calling both trees, the change first in even rounds and the baseline
first in odd ones, so a drift of the machine's speed falls on both
alike.  The cell then also holds ``baseline_median_s``,
``baseline_times_s``, ``ratio`` (the change's median over the baseline's)
and ``wins`` (the rounds the change was faster).  A cell runs on both
trees or on neither, and the predicted-overrun skip reads the baseline's
medians.  Subjects pair by name, so the two trees may list their routes
in any order; a subject found on one tree only is a cell marked ``only in
change`` or ``only in baseline``, which runs on neither.  Each subject's
value must be the same on both trees: a cell where they differ is marked
``differs`` and named on standard error.  The report gains a
``baseline`` block with ROOT and its machine facts.

Exit status 1 if the routes disagree or the two trees' values differ, 2 on
a bad option or a baseline that cannot be loaded, 0 otherwise.
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
from importlib import import_module, util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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


def load(src: Path, name: str):
    """The ``compderiv`` package under ``src``, imported as module ``name`` with its ``cli``.
    Its relative imports keep its modules apart from another tree's."""
    init = src.resolve() / "compderiv" / "__init__.py"
    spec = util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = util.module_from_spec(spec)
    spec.loader.exec_module(package)
    import_module(f"{name}.cli")
    return package


def _git(src: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=src, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine_facts(src: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    status = _git(src, "status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "git_commit": _git(src, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def subjects(package, n: int, drawn: list[Fraction]):
    """(name, call) for each thing timed at order n on ``package``, from
    phi's base and n derivatives, then psi's, in ``drawn``."""
    phi, psi = (package.DerivativeSequence(d[1:], d[0]) for d in (drawn[: n + 1], drawn[n + 1 :]))
    inputs = package.cli._sequence_inputs(phi, psi, n, AT)
    for name, route in package.cli.ROUTES.items():
        yield name, (lambda call=route.call: call(inputs, n))
    jets = (package.jet_from_derivatives(phi, n), package.jet_from_derivatives(psi, n))
    yield "jet_compose", lambda: package.jet_compose(*jets)
    yield "lagrange_power_coefficient", lambda: package.lagrange_power_coefficient(psi, EXPONENT, n)


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


def _plain(value):
    """A route's Fraction, or a jet as (base, *derivs): the Records of two
    trees are of two classes, and never compare equal."""
    return value if isinstance(value, Fraction) else (value.base, *value.derivs)


def ladder(trees: list, orders: list[int], calls: int, budget: float) -> tuple[list[dict], list[dict]]:
    """Every cell on ``trees``: the change's package, then the baseline's if any.
    A cell pairs the trees' subjects of one name, the change's in its order first."""
    cells, agreement = [], []
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}  # (set, subject) -> [(n, median_s)]
    for set_name, draw in SETS.items():
        for n in orders:
            rng = random.Random(n)
            drawn = [draw(rng) for _ in range(2 * n + 2)]
            values = {}
            tables = [dict(subjects(package, n, drawn)) for package in trees]
            for name in dict.fromkeys([*tables[0], *tables[-1]]):
                cell = {"subject": name, "set": set_name, "n": n}
                cells.append(cell)
                row = [table.get(name) for table in tables]
                if None in row:
                    cell["skip"] = "only in baseline" if row[0] is None else "only in change"
                    continue
                if (set_name, name) in runs:
                    predicted = predict(runs[set_name, name], n)
                    if predicted > budget:
                        m = runs[set_name, name][-1][0]
                        cell["skip"] = f"predicted {predicted:.3g} s > budget {budget:g} s from n = {m}"
                        continue
                times, got = [[] for _ in row], [None] * len(row)
                try:
                    for k in range(calls):  # the change first in even rounds, the baseline in odd ones
                        for i in range(len(row))[:: -1 if k % 2 else 1]:
                            start = time.perf_counter()
                            got[i] = row[i]()
                            times[i].append(time.perf_counter() - start)
                except ValueError as exc:
                    if sum(map(len, times)) >= len(row):  # past each tree's first call
                        raise
                    cell["skip"] = f"library bound: {exc}"
                    continue
                medians = [statistics.median(t) for t in times]
                cell.update(median_s=medians[0], calls=calls, times_s=times[0])
                if len(trees) > 1:
                    cell.update(baseline_median_s=medians[1], baseline_times_s=times[1],
                                ratio=medians[0] / medians[1], wins=sum(a < b for a, b in zip(*times)))
                    if len({_plain(value) for value in got}) > 1:
                        cell["differs"] = True
                        print(f"{name} on {set_name} at n = {n}: the trees' values differ", file=sys.stderr)
                # The baseline's median when there is one, so the change cannot move a skip.
                runs.setdefault((set_name, name), []).append((n, medians[-1]))
                if name in trees[0].cli.ROUTES:
                    values[name] = got[0]
            agreement.append(
                {"set": set_name, "n": n, "routes": sorted(values), "agree": len(set(values.values())) <= 1}
            )
    return cells, agreement


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", default=",".join(map(str, ORDERS)), help="comma-separated orders")
    parser.add_argument("--calls", type=int, default=3, help="calls per cell (k), default 3")
    parser.add_argument("--budget", type=float, default=10.0, help="seconds a cell may be predicted to take")
    parser.add_argument("--out", type=Path, help="JSON file to write (default: standard output)")
    parser.add_argument("--baseline", type=Path, metavar="ROOT", help="a tree to time alternately against")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    trees = [load(SRC, "compderiv")]
    top = trees[0].exact.MAX_ORDER
    try:
        orders = [int(text) for text in args.orders.split(",")]
    except ValueError:
        orders = []
    if not orders or min(orders) < 1 or max(orders) > top:
        parser.error(f"--orders takes orders from 1 to MAX_ORDER = {top}, comma-separated: {args.orders!r}")
    report = {  # facts taken before the run, so files edited while it runs do not mark it dirty
        "machine": machine_facts(SRC),
        "orders": orders,
        "calls": args.calls,
        "budget_s": args.budget,
        "sets": list(SETS),
        "lagrange_exponent": EXPONENT,
    }
    if args.baseline:
        if not (args.baseline / "src" / "compderiv" / "__init__.py").is_file():
            parser.error(f"--baseline {args.baseline}: no src/compderiv/__init__.py under it")
        trees.append(load(args.baseline / "src", "compderiv_baseline"))
        missing = [name for name in ("ROUTES", "_sequence_inputs") if not hasattr(trees[1].cli, name)]
        if missing:
            parser.error(f"--baseline {args.baseline}: its cli has no {' or '.join(missing)}")
        report["baseline"] = {"root": str(args.baseline), **machine_facts(args.baseline / "src")}
    report["cells"], report["agreement"] = ladder(trees, orders, args.calls, args.budget)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    differ = any("differs" in cell for cell in report["cells"])
    return 0 if all(row["agree"] for row in report["agreement"]) and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
