from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


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
    assert set(report["machine"]) == {"nproc", "python", "platform", "cpu_model", "git_commit"}
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
    # The partition route stops at MAX_PARTITION_ORDER = 60, the determinant
    # starts at order 2, and a zero budget skips every cell after the first one
    # run in its row.
    subprocess.run(
        [sys.executable, str(LADDER), "--orders", "1,2,61", "--calls", "1", "--budget", "0",
         "--out", str(out)],
        check=True,
    )
    cells = {(c["subject"], c["set"], c["n"]): c for c in json.loads(out.read_text())["cells"]}
    assert cells["determinant", "small", 1]["skip"] == "library bound: n < 2"
    assert cells["partition", "small", 61]["skip"] == "library bound: n > MAX_PARTITION_ORDER = 60"
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


def test_compare_prints_new_over_old_per_cell(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    base = [sys.executable, str(LADDER), "--orders", "3,4", "--calls", "1"]
    subprocess.run([*base, "--out", str(old)], check=True)
    report = json.loads(old.read_text())
    # One cell skipped on the old side, one absent from it, one at a known time.
    cells = {(c["subject"], c["set"], c["n"]): c for c in report["cells"]}
    cells["bell", "small", 3].update(skip="library bound: a test marker")
    del cells["bell", "small", 3]["median_s"]
    report["cells"].remove(cells["series", "64-bit", 4])
    cells["determinant", "small", 4]["median_s"] = 0.5
    old.write_text(json.dumps(report))

    result = subprocess.run(
        [*base, "--out", str(new), "--compare", str(old)],
        check=True, capture_output=True, text=True,
    )
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["subject", "set", "n", "new", "ms", "old", "ms", "new/old"]
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in lines[1:]}
    new_cells = json.loads(new.read_text())["cells"]
    assert len(rows) == len(lines) - 1 == len(new_cells)
    assert " ".join(rows["bell", "small", "3"]) == "skip (old): library bound: a test marker"
    assert " ".join(rows["series", "64-bit", "4"]) == "not in the compared file"
    key = ("determinant", "small", 4)
    new_s = next(c["median_s"] for c in new_cells if (c["subject"], c["set"], c["n"]) == key)
    assert rows["determinant", "small", "4"] == [
        f"{new_s * 1e3:.3f}", "500.000", f"{new_s / 0.5:.2f}"
    ]


def test_compare_needs_out_for_the_json(tmp_path):
    result = subprocess.run(
        [sys.executable, str(LADDER), "--orders", "3", "--compare", str(tmp_path / "old.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "--compare prints to standard output, so it needs --out" in result.stderr
