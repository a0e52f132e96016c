from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

# A stand-in for bench/run.py: it checks that it may read no cached bytecode,
# appends "<tree> <seed>" to ../calls.log and prints a summary line, then the
# result line of the tree's result.json, in which "wall_s" is a list indexed
# by the seed.
STUB = textwrap.dedent("""
    import json, os, sys
    from pathlib import Path
    prefix = Path(os.environ["PYTHONPYCACHEPREFIX"])
    assert prefix.is_dir() and not any(prefix.iterdir()), prefix
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    here = Path.cwd()
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    with open(here.parent / "calls.log", "a") as log:
        log.write(f"{here.name} {seed}\\n")
    result = json.loads((here / "result.json").read_text())
    exit_code = result.pop("exit", 0)
    walls = result["metrics"]["wall_s"]["value"]
    result["metrics"]["wall_s"]["value"] = walls[seed % len(walls)]
    print("wall_s ...")
    print(json.dumps(result))
    sys.exit(exit_code)
""")


def _tree(root: Path, name: str, walls: list[float], rss: float, **extra) -> Path:
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(STUB)
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": walls, "unit": "s"},
        "ops_per_s": {"value": 100.0, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}
    result.update(extra)
    (tree / "result.json").write_text(json.dumps(result))
    return tree


def _pairs(change: Path, baseline: Path, *more: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(PAIRS), "--tree", str(change), "--baseline", str(baseline),
            "--workload", "expr_derive", "--seconds", "2", *more]
    return subprocess.run(argv, capture_output=True, text=True)


def test_pairs_alternate_and_report_medians_quartiles_wins_and_bounds(tmp_path):
    change = _tree(tmp_path, "change", [0.9, 1.0, 0.8, 0.95], rss=26.0)
    baseline = _tree(tmp_path, "baseline", [1.0, 1.1, 0.9, 0.9], rss=24.0)
    proc = _pairs(change, baseline, "--pairs", "4", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    calls = (tmp_path / "calls.log").read_text().split("\n")
    assert calls[:-1] == ["change 5", "baseline 5", "baseline 6", "change 6",
                          "change 7", "baseline 7", "baseline 8", "change 8"]
    rows = {line.split()[0]: line for line in proc.stdout.splitlines() if not line.startswith("#")}
    # Seeds 5..8 read walls[1], [2], [3], [0]: change 1.0, 0.8, 0.95, 0.9 against
    # 1.1, 0.9, 0.9, 1.0.  The change wins three pairs, and the 0.025 s between
    # the medians is less than the baseline's interquartile range, 0.125 s.
    assert rows["wall_s"].split() == [
        "wall_s", "0.925", "[0.875,", "0.9625]", "0.95", "[0.9,", "1.025]", "0.974", "3/4", "no"
    ]
    assert rows["ops_per_s"].split()[-3:] == ["1.000", "0/4", "no"]
    # peak_rss_mb is 8.3 % worse against a 5 % bound, and its quartiles are equal.
    assert rows["peak_rss_mb"].split()[-2:] == ["0/4", "yes"]
    assert proc.stdout.splitlines()[-2:] == [
        "bounds crossed: 1",
        "  peak_rss_mb: change median 26 is 8.3% worse than the baseline's 24, past the bound 5%",
    ]


def test_a_run_that_fails_or_reports_a_wrong_value_exits_1(tmp_path):
    good = _tree(tmp_path, "good", [1.0], rss=24.0)
    wrong = _tree(tmp_path, "wrong", [1.0], rss=24.0, correct=False, exit=1)
    crashed = _tree(tmp_path, "crashed", [1.0], rss=24.0, exit=2)
    proc = _pairs(good, wrong)
    assert proc.returncode == 1
    assert "baseline run failed" in proc.stderr and "exit 1, correct = False" in proc.stderr
    proc = _pairs(crashed, good, "--pairs", "1")
    assert proc.returncode == 1
    assert "change run failed" in proc.stderr and "exit 2, correct = True" in proc.stderr
    silent = _tree(tmp_path, "silent", [1.0], rss=24.0)
    (silent / "result.json").unlink()  # the stub raises before its result line
    proc = _pairs(good, silent, "--pairs", "1")
    assert proc.returncode == 1
    assert "exit 1, no result line" in proc.stderr and "FileNotFoundError" in proc.stderr
    # Each stops at the failed run.
    assert (tmp_path / "calls.log").read_text().split("\n")[:-1] == [
        "good 1", "wrong 1", "crashed 1", "good 1", "silent 1"
    ]
