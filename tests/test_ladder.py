from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


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
