from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "tools" / "ladder.py"
MACHINE = {"nproc", "python", "platform", "cpu_model", "git_commit", "git_dirty"}
DETERMINANT_BOUND = (
    "library bound: determinant route needs order >= 2, got 1; "
    "use the partition route for the first derivative"
)


def _baseline(tmp_path: Path, module: str, text: str) -> Path:
    """A copy of this tree's ``src/compderiv`` under ``tmp_path``, ``text`` appended to ``module``."""
    shutil.copytree(ROOT / "src" / "compderiv", tmp_path / "src" / "compderiv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "compderiv" / module, "a") as f:
        f.write(text)
    return tmp_path


def _ladder(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LADDER), *argv], capture_output=True, text=True)


def _load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ladder_writes_every_cell_at_two_low_orders(tmp_path):
    out = tmp_path / "ladder.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(LADDER), "--orders", "3,4", "--calls", "1", "--out", str(out)],
        check=True,
    )
    assert time.perf_counter() - start < 2
    report = json.loads(out.read_text())
    assert set(report) == {
        "machine", "orders", "calls", "budget_s", "sets", "lagrange_exponent", "cells", "agreement",
    }
    assert set(report["machine"]) == MACHINE
    assert (report["orders"], report["calls"]) == ([3, 4], 1)
    subjects = {
        "partition", "bell", "determinant", "series", "symbolic", "jet_compose",
        "lagrange_power_coefficient",
    }
    for set_name in ("small", "64-bit", "64-bit-nonzero"):
        for n in (3, 4):
            row = [c for c in report["cells"] if (c["set"], c["n"]) == (set_name, n)]
            assert {c["subject"] for c in row} == subjects
            assert all(c["calls"] == 1 and c["median_s"] > 0 for c in row)
    assert len(report["agreement"]) == 6
    assert all(row["agree"] and len(row["routes"]) == 5 for row in report["agreement"])


def test_the_ladder_marks_a_library_bound_and_a_predicted_overrun(tmp_path):
    out = tmp_path / "ladder.json"
    # The determinant starts at order 2, and its first call says so.  A zero
    # budget skips every cell after the first one run in its row, before any
    # call, so the partition route at 61, past MAX_PARTITION_ORDER = 60, is
    # predicted too.
    subprocess.run(
        [sys.executable, str(LADDER), "--orders", "1,2,61", "--calls", "1", "--budget", "0",
         "--out", str(out)],
        check=True,
    )
    cells = {(c["subject"], c["set"], c["n"]): c for c in json.loads(out.read_text())["cells"]}
    assert cells["determinant", "small", 1]["skip"] == DETERMINANT_BOUND
    assert cells["partition", "small", 61]["skip"].startswith("predicted ")
    assert cells["series", "small", 61]["skip"].startswith("predicted ")
    assert "median_s" in cells["series", "small", 1]


@pytest.mark.parametrize(
    "runs, n, predicted",
    [
        # Medians (s) of BENCH_32.json's rows at n = 30 and 50, and the prediction at 100.
        pytest.param([(30, 0.13003), (50, 1.05273)], 100, 18.0, id="jet_compose/64-bit-nonzero"),
        pytest.param([(30, 0.18588), (50, 1.68611)], 100, 33.6, id="symbolic/64-bit"),
        pytest.param([(30, 0.04261), (50, 0.36585)], 100, 6.8, id="series/64-bit-nonzero"),
        pytest.param([(30, 0.08669), (50, 0.59864)], 100, 8.2, id="determinant/64-bit-nonzero"),
        pytest.param([(30, 0.05012), (50, 0.37731)], 100, 5.8, id="bell/64-bit-nonzero"),
        # Bell on 64-bit values grows as n^1.6 from n = 12 to 20: the cube still holds.
        pytest.param([(12, 0.000752), (20, 0.001691)], 30, 0.001691 * 1.5**3, id="bell/64-bit"),
        # One cell run: the cube.
        pytest.param([(50, 1.0)], 100, 8.0, id="one cell"),
    ],
)
def test_the_prediction_grows_at_least_as_the_cube(runs, n, predicted):
    assert _load_ladder().predict(runs, n) == pytest.approx(predicted, rel=0.01)


def test_the_baseline_alternates_every_cell_with_a_second_tree(tmp_path):
    out = tmp_path / "ladder.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(LADDER), "--orders", "3,4", "--calls", "2", "--baseline", str(ROOT),
         "--out", str(out)],
        check=True,
    )
    assert time.perf_counter() - start < 3
    report = json.loads(out.read_text())
    assert set(report["baseline"]) == {"root"} | MACHINE
    assert report["baseline"]["root"] == str(ROOT)
    assert len(report["cells"]) == 3 * 2 * 7
    for cell in report["cells"]:
        assert {"median_s", "baseline_median_s", "ratio", "wins"} <= set(cell)
        assert cell["calls"] == 2 and 0 <= cell["wins"] <= 2
        for side in ("", "baseline_"):
            assert len(cell[f"{side}times_s"]) == 2
            assert cell[f"{side}median_s"] == statistics.median(cell[f"{side}times_s"])
        assert cell["wins"] == sum(a < b for a, b in zip(cell["times_s"], cell["baseline_times_s"]))
        assert cell["ratio"] == pytest.approx(cell["median_s"] / cell["baseline_median_s"])
        assert "differs" not in cell
    assert all(row["agree"] for row in report["agreement"])


def test_a_value_that_differs_between_the_trees_exits_1(tmp_path):
    _baseline(tmp_path, "cli.py",  # the baseline's Bell adds 1
              'ROUTES["bell"] = ROUTES["bell"]._replace(\n'
              '    call=lambda i, n, c=ROUTES["bell"].call: c(i, n) + 1)\n')
    result = _ladder("--orders", "3", "--calls", "1", "--baseline", str(tmp_path),
                     "--out", str(tmp_path / "ladder.json"))
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"bell on {s} at n = 3: the trees' values differ" for s in ("small", "64-bit", "64-bit-nonzero")
    ]
    cells = json.loads((tmp_path / "ladder.json").read_text())["cells"]
    assert {c["subject"] for c in cells if c.get("differs")} == {"bell"}


def test_a_baseline_with_its_routes_reversed_pairs_each_route_with_itself():
    # Both trees are this checkout's src, the baseline's route table reversed.
    # Each call is logged with its tree, name and value: every cell must call
    # the same route on both trees, and get the same value from each.
    ladder = _load_ladder()
    names = ("ladder_change", "ladder_reversed")
    log = []

    def logged(tree, name, call):
        def run(inputs, n):
            value = call(inputs, n)
            log.append((tree, name, value))
            return value
        return run

    try:
        trees = [ladder.load(ROOT / "src", name) for name in names]
        for tree, package in zip(names, trees):
            routes = package.cli.ROUTES.items()
            if tree == "ladder_reversed":
                routes = reversed(routes)
            package.cli.ROUTES = {
                name: route._replace(call=logged(tree, name, route.call)) for name, route in routes
            }
        cells, agreement = ladder.ladder(trees, [3], 2, 10.0)
    finally:
        for module in [m for m in sys.modules if m.split(".")[0] in names]:
            del sys.modules[module]
    order = ["partition", "bell", "determinant", "series", "symbolic"]
    assert [c["subject"] for c in cells if c["set"] == "small"] == [
        *order, "jet_compose", "lagrange_power_coefficient"
    ]
    assert all("skip" not in c and "differs" not in c for c in cells)
    assert all(row["agree"] and row["routes"] == sorted(order) for row in agreement)
    # Three sets, five routes, two rounds of a call on each tree.
    assert len(log) == 3 * 5 * 2 * 2
    for first, second in zip(log[::2], log[1::2]):
        assert first[0] != second[0] and first[1:] == second[1:]
    assert [name for _, name, _ in log[: 5 * 4 : 4]] == order


@pytest.mark.parametrize(
    "edit, subject, skip, timed",
    [
        pytest.param('del ROUTES["series"]\n', "series", "only in change", 6, id="removed"),
        pytest.param('ROUTES["bell_again"] = ROUTES["bell"]\n', "bell_again", "only in baseline", 7,
                     id="added"),
    ],
)
def test_a_route_on_one_tree_only_is_marked_and_the_others_are_timed(
    tmp_path, edit, subject, skip, timed
):
    # timed: the subjects on both trees, each a timed cell in every set.
    _baseline(tmp_path, "cli.py", edit)
    result = _ladder("--orders", "3", "--calls", "1", "--baseline", str(tmp_path),
                     "--out", str(tmp_path / "ladder.json"))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "ladder.json").read_text())
    marked = [c for c in report["cells"] if c["subject"] == subject]
    assert [c["set"] for c in marked] == ["small", "64-bit", "64-bit-nonzero"]
    for cell in marked:
        assert cell["skip"] == skip and "median_s" not in cell and "baseline_median_s" not in cell
    others = [c for c in report["cells"] if c["subject"] != subject]
    assert len(others) == 3 * timed
    assert all("median_s" in c and "baseline_median_s" in c and "differs" not in c for c in others)
    assert all(row["agree"] for row in report["agreement"])


@pytest.mark.parametrize("orders", ["0", "101", "3,,4"])
def test_bad_orders_are_an_argument_error(orders):
    result = subprocess.run(
        [sys.executable, str(LADDER), "--orders", orders], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert f"error: --orders takes orders from 1 to MAX_ORDER = 100, comma-separated: {orders!r}" in (
        result.stderr
    )
    assert "Traceback" not in result.stderr


def test_a_baseline_whose_routes_hold_only_a_call_runs(tmp_path):
    # The ladder reads each route's call and nothing else, so a baseline
    # whose route table has another shape still runs; the library's own
    # check skips the determinant at n = 1 on both trees.
    _baseline(tmp_path, "cli.py",
              'ROUTES = {name: NamedTuple("_Call", [("call", Callable)])(route.call)\n'
              '          for name, route in ROUTES.items()}\n')
    result = _ladder("--orders", "1,3", "--calls", "1", "--baseline", str(tmp_path),
                     "--out", str(tmp_path / "ladder.json"))
    assert result.returncode == 0, result.stderr
    cells = json.loads((tmp_path / "ladder.json").read_text())["cells"]
    assert not any("differs" in c for c in cells)
    assert {(c["subject"], c["n"], c["skip"]) for c in cells if "skip" in c} == {
        ("determinant", 1, DETERMINANT_BOUND)
    }


def test_a_library_bound_on_either_tree_skips_the_cell_on_both(tmp_path):
    # Only the baseline stops the partition sum at order 2; the change's
    # first call succeeds, and the cell still runs on neither tree.
    _baseline(tmp_path, "partitions.py", "MAX_PARTITION_ORDER = 2\n")
    result = _ladder("--orders", "3", "--calls", "1", "--baseline", str(tmp_path),
                     "--out", str(tmp_path / "ladder.json"))
    assert result.returncode == 0, result.stderr
    cells = json.loads((tmp_path / "ladder.json").read_text())["cells"]
    skipped = [c for c in cells if "skip" in c]
    assert [c["subject"] for c in skipped] == ["partition"] * 3
    for cell in skipped:
        assert cell["skip"] == "library bound: partition order 3 > MAX_PARTITION_ORDER = 2"
        assert "median_s" not in cell and "baseline_median_s" not in cell
    assert all("median_s" in c and "differs" not in c for c in cells if "skip" not in c)


@pytest.mark.parametrize("missing", ["src/compderiv/__init__.py", "_sequence_inputs"])
def test_an_unloadable_baseline_is_an_argument_error(tmp_path, missing):
    if missing == "_sequence_inputs":
        root = _baseline(tmp_path, "cli.py", "del _sequence_inputs\n")
        message = "its cli has no _sequence_inputs"
    else:
        root = tmp_path / "missing"
        message = "no src/compderiv/__init__.py under it"
    result = _ladder("--orders", "3", "--baseline", str(root))
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1] == f"ladder.py: error: --baseline {root}: {message}"
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_subjects_and_sets_time_only_the_named_cells(tmp_path):
    out = tmp_path / "ladder.json"
    result = _ladder("--orders", "3,4", "--calls", "1", "--baseline", str(ROOT),
                     "--subjects", "jet_compose,determinant", "--sets", "64-bit,small", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    # Listed in the ladder's own order, whatever order the options name them in.
    assert (report["subjects"], report["sets"]) == (["determinant", "jet_compose"], ["small", "64-bit"])
    assert [(c["subject"], c["set"], c["n"]) for c in report["cells"]] == [
        (subject, set_name, n)
        for set_name in ("small", "64-bit") for n in (3, 4) for subject in ("determinant", "jet_compose")
    ]
    assert all("ratio" in c and "differs" not in c for c in report["cells"])
    # Agreement rows compare the routes that ran: here the determinant alone.
    assert [(row["set"], row["n"], row["routes"], row["agree"]) for row in report["agreement"]] == [
        (set_name, n, ["determinant"], True) for set_name in ("small", "64-bit") for n in (3, 4)
    ]


@pytest.mark.parametrize(
    "option, names, message",
    [
        ("--subjects", "determinant,bel", "--subjects: unknown 'bel'; known: partition, bell, "
         "determinant, series, symbolic, jet_compose, lagrange_power_coefficient"),
        ("--sets", "small,wide", "--sets: unknown 'wide'; known: small, 64-bit, 64-bit-nonzero"),
    ],
)
def test_an_unknown_subject_or_set_is_an_argument_error(option, names, message):
    result = _ladder("--orders", "100", "--baseline", str(ROOT), option, names)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1] == f"ladder.py: error: {message}"
    assert "Traceback" not in result.stderr and result.stdout == ""
