"""Tiny-size smoke tests of the benchmark harness itself.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_one_op_and_the_golden_op_are_correct(name):
    session = run.Session(name, seed=7, n_ops=1)
    times, scales, records = session.run_ops(session.ops)
    assert session.check(session.ops, records) == [[]]
    assert times[0] > 0 and scales[0] > 0
    assert session.golden_problems() == []


def test_a_wrong_route_value_is_caught():
    session = run.Session("wide_rationals", seed=7, n_ops=1)
    bell = session.cd.composition.derivative_bell
    session.cd.composition.derivative_bell = lambda phi, psi, n: bell(phi, psi, n) + 1
    _times, _scales, records = session.run_ops(session.ops)
    [problems] = session.check(session.ops, records)
    assert any("disagree" in p for p in problems)


def test_a_changed_digest_is_caught(tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"expr_derive": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    session = run.Session("expr_derive", seed=7, n_ops=1)
    assert any("digest" in p for p in session.golden_problems())


def test_high_order_reports_skip_markers():
    session = run.Session("high_order", seed=7, n_ops=1)
    _times, _scales, [record] = session.run_ops(session.ops)
    top = record["rungs"][-1]["values"]
    assert record["rungs"][-1]["n"] == 50
    assert {k for k, v in top.items() if isinstance(v, str)} == {"partition", "bell", "lagrange"}


def test_traced_counters_repeat_and_tracer_uninstalls():
    def counters():
        session = run.Session("expr_derive", seed=3, n_ops=2)
        main = session.cd.cli.main
        tracer = Tracer()
        tracer.install()
        try:
            session.run_ops(session.ops, tracer)
        finally:
            tracer.uninstall()
        assert session.cd.cli.main is main
        return {k: v for k, (v, unit) in layer_metrics(tracer).items() if unit != "s"}

    first = counters()
    assert first["symbolic.differentiate_calls"] > 0
    assert first["composition.partial_bell_calls"] > 0
    assert counters() == first


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, section):
    command = SPEC["command"] + ["--workload", "expr_derive", "--seed", "2",
                                 "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = SPEC["command"] + ["--workload", "expr_derive", "--seed", "2",
                                 "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None
