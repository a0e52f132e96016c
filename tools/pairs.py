"""Run alternated ``bench/run.py`` pairs on two trees and compare their metrics.

    python3 tools/pairs.py --baseline ../parent --workload expr_derive
    python3 tools/pairs.py --baseline . --workload expr_derive --pairs 1 --seconds 2

Stdlib only.  Each pair runs

    bench/run.py --workload W --seconds S --seed K --trace 0

once in each tree, from that tree's root and with that tree's own
``bench/run.py``: the change (the checkout that holds this script; to
time another checkout, run that checkout's own ``tools/pairs.py``) and
the baseline (``--baseline ROOT``, e.g. a ``git archive`` of the parent
commit), which must hold ``bench/run.py``.
Pair i uses seed ``--seed`` + i on both sides.  The order alternates:
the change runs first in even pairs (AB) and the baseline first in odd ones
(BA), so a drift of the machine's speed falls on both sides alike.

Every run writes no bytecode (``PYTHONDONTWRITEBYTECODE=1``) and looks for
it only under one empty temporary directory (``PYTHONPYCACHEPREFIX``), so
neither tree's ``__pycache__`` is read and each import compiles from source
on both sides alike.  ``bench/run.py`` imports the program nine times for
``setup_s``, and a stale cache in one tree moved ``wide_rationals``
``setup_s`` by about 40 % on a 2-vCPU host.

For each metric the runs report, it prints each side's median and quartiles
(``statistics.quantiles``, inclusive method), change/baseline, how many pairs
the change won, and whether the two medians differ by more than the
baseline's interquartile range.  The bounds and the better direction come
from this checkout's ``BENCHMARK.json``.  Then one line names the gains:
each metric whose change won at least 9/10 of the pairs in its better
direction (a tie counts for neither side) and whose median is better than
the baseline's by more than the baseline's interquartile range.  Last, it
lists every metric whose change median is worse than the baseline median
by more than its bound, as a fraction of the baseline median.

Exit status 1 if a run fails (no result line, or an exit status other than
0 or 1) or does not report ``"correct": true``, after printing that run's command
and the end of its standard error; 2 on a bad option or a baseline with no
``bench/run.py``, before any run; 0 otherwise, bounds crossed or not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    """A bench run printed no result, crashed, or reported a wrong value."""


def run_bench(tree: Path, workload: str, seconds: int, seed: int, pycache: str) -> dict[str, float]:
    """One ``bench/run.py`` run in ``tree``, reading bytecode only under the
    empty directory ``pycache``: its metric values by name."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--seed", str(seed), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    where = f"{' '.join(argv[1:])} in {tree}"
    if not isinstance(result, dict):
        raise RunFailed(f"{where}: exit {proc.returncode}, no result line\n{proc.stderr[-2000:]}")
    if proc.returncode not in (0, 1) or result.get("correct") is not True:
        raise RunFailed(f"{where}: exit {proc.returncode}, correct = {result.get('correct')}\n"
                        f"{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bounds(benchmark: Path) -> dict[str, tuple[str, float]]:
    """End-to-end metric name -> (better, bound) from a BENCHMARK.json."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def summarize(change: list[dict[str, float]], baseline: list[dict[str, float]],
              limits: dict[str, tuple[str, float]]) -> tuple[list[str], list[str], list[str]]:
    """The table's lines, the names of the gains, and one line per metric past its bound.

    A metric of a ``--workload all`` run is named ``workload.metric``; its
    bound is the one of ``metric``.  A metric with no bound is taken as
    lower-is-better and crosses nothing.
    """
    lines = [f"{'metric':<24} {'change median [q1, q3]':<34} {'baseline median [q1, q3]':<34} "
             f"{'ratio':>6} {'wins':>6}  beyond baseline IQR"]
    gains, crossed = [], []
    for name in change[0]:
        better, bound = limits.get(name.rsplit(".", 1)[-1], ("lower", None))
        new = [run[name] for run in change]
        old = [run[name] for run in baseline]
        nq1, nmed, nq3 = quartiles(new)
        oq1, omed, oq3 = quartiles(old)
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (a - b) < 0 for a, b in zip(new, old))
        ratio = nmed / omed if omed else float("nan")
        beyond = "yes" if abs(nmed - omed) > oq3 - oq1 else "no"
        cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for q1, med, q3 in ((nq1, nmed, nq3), (oq1, omed, oq3))]
        lines.append(f"{name:<24} {cells[0]:<34} {cells[1]:<34} {ratio:>6.3f} "
                     f"{f'{wins}/{len(new)}':>6}  {beyond}")
        worse = sign * (nmed - omed)
        if 10 * wins >= 9 * len(new) and -worse > oq3 - oq1:
            gains.append(name)
        if bound is not None and worse > bound * abs(omed):
            crossed.append(f"{name}: change median {nmed:.6g} is {worse / abs(omed):.1%} worse "
                           f"than the baseline's {omed:.6g}, past the bound {bound:.0%}")
    return lines, gains, crossed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, metavar="ROOT", required=True, help="root of the baseline tree")
    parser.add_argument("--workload", required=True, help="a bench workload, or all")
    parser.add_argument("--pairs", type=int, default=10, help="alternated pairs to run, default 10")
    parser.add_argument("--seconds", type=int, default=20, help="bench/run.py --seconds, default 20")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair, default 1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.baseline / "bench" / "run.py").is_file():
        parser.error(f"--baseline {args.baseline}: no bench/run.py under it")
    trees = {"change": ROOT, "baseline": args.baseline.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"change": [], "baseline": []}
    with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as pycache:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("change", "baseline") if i % 2 == 0 else ("baseline", "change")
            for side in order:
                try:
                    runs[side].append(run_bench(trees[side], args.workload, args.seconds, seed, pycache))
                except RunFailed as exc:
                    print(f"error: {side} run failed: {exc}", file=sys.stderr)
                    return 1
            print(f"# pair {i + 1}/{args.pairs} seed {seed} order {'AB' if i % 2 == 0 else 'BA'}",
                  file=sys.stderr)
    print(f"# {args.workload}: {args.pairs} alternated pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"--seconds {args.seconds}")
    print(f"# change   {trees['change']}\n# baseline {trees['baseline']}")
    lines, gains, crossed = summarize(runs["change"], runs["baseline"], bounds(ROOT / "BENCHMARK.json"))
    print("\n".join(lines))
    print("gains (at least 9/10 pairs won, medians apart by more than the baseline IQR): "
          + (", ".join(gains) or "none"))
    print("bounds crossed: " + ("none" if not crossed else f"{len(crossed)}"))
    for line in crossed:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
