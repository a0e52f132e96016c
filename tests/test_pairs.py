from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / "tools" / "pairs.py"

# A stand-in for bench/run.py: it checks that it may read no cached bytecode,
# appends "<tree> <seed>" to ../calls.log and its --seconds to ../seconds.log,
# and prints a summary line, then the result line of the tree's result.json,
# in which a metric given as a list is indexed by the seed.
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
    with open(here.parent / "seconds.log", "a") as log:
        log.write(sys.argv[sys.argv.index("--seconds") + 1] + "\\n")
    result = json.loads((here / "result.json").read_text())
    exit_code = result.pop("exit", 0)
    for metric in result["metrics"].values():
        if isinstance(metric["value"], list):
            metric["value"] = metric["value"][seed % len(metric["value"])]
    print("wall_s ...")
    print(json.dumps(result))
    sys.exit(exit_code)
""")


def _tree(root: Path, name: str, walls: list[float], rss: float | list[float],
          ops: float | list[float] = 100.0, **extra) -> Path:
    # Each tree holds this tool and BENCHMARK.json, to run as the change.
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(STUB)
    (tree / "tools").mkdir()
    shutil.copy(PAIRS, tree / "tools" / "pairs.py")
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": walls, "unit": "s"},
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}
    result.update(extra)
    (tree / "result.json").write_text(json.dumps(result))
    return tree


def _pairs(change: Path, baseline: Path, *more: str,
           seconds: str | None = "2") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(change / "tools" / "pairs.py"), "--baseline", str(baseline),
            "--workload", "expr_derive", *(["--seconds", seconds] if seconds else []), *more]
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
    assert proc.stdout.splitlines()[-3:] == [
        "gains (at least 9/10 pairs won, medians apart by more than the baseline IQR): none",
        "bounds crossed: 1",
        "  peak_rss_mb: change median 26 is 8.3% worse than the baseline's 24, past the bound 5%",
    ]


def test_pairs_name_the_gains_by_wins_and_the_baseline_iqr(tmp_path):
    # Ten pairs read index 1, ..., 9, 0 of each list.  wall_s wins all ten, but
    # its medians, 0.99 and 1.0, lie within the baseline's quartiles 0.9 and 1.1.
    # ops_per_s (higher is better) wins nine and ties one; peak_rss_mb wins
    # eight and ties two, and a tie counts for neither side.
    walls = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = _tree(tmp_path, "change", [w - 0.01 for w in walls], rss=[23.0] * 8 + [24.0] * 2,
                   ops=[110.0] * 9 + [100.0])
    baseline = _tree(tmp_path, "baseline", walls, rss=24.0)
    proc = _pairs(change, baseline, "--pairs", "10")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()}
    assert rows["wall_s"][-2:] == ["10/10", "no"]
    assert rows["ops_per_s"][-2:] == ["9/10", "yes"]
    assert rows["peak_rss_mb"][-2:] == ["8/10", "yes"]
    assert proc.stdout.splitlines()[-2:] == [
        "gains (at least 9/10 pairs won, medians apart by more than the baseline IQR): ops_per_s",
        "bounds crossed: none",
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


def test_a_missing_baseline_is_an_argument_error_before_any_run(tmp_path):
    change = _tree(tmp_path, "change", [1.0], rss=24.0)
    proc = _pairs(change, tmp_path / "missing", "--pairs", "1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"pairs.py: error: --baseline {tmp_path / 'missing'}: no bench/run.py under it"
    )
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "calls.log").exists()


def test_the_run_length_defaults_to_the_benchmark_s_run_seconds(tmp_path):
    # The change tree's BENCHMARK.json sets the length; an explicit --seconds wins.
    change = _tree(tmp_path, "change", [1.0], rss=24.0)
    baseline = _tree(tmp_path, "baseline", [1.0], rss=24.0)
    spec = json.loads((change / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 7}))
    proc = _pairs(change, baseline, "--pairs", "1", seconds=None)
    assert proc.returncode == 0, proc.stderr
    assert "--seconds 7" in proc.stdout.splitlines()[0]
    proc = _pairs(change, baseline, "--pairs", "1", seconds="3")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "seconds.log").read_text().split() == ["7", "7", "3", "3"]
