"""compderiv benchmark: seeded closed-loop workloads, checked outputs,
end-to-end metrics, and a traced run with per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload high_order --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--workload all`` runs each workload in its own interpreter.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the op list untraced, then the
same ops traced, and reports the per-layer metrics.  Full results (machine
facts, every op, spans when traced) go to ``bench/out/``.  The exit code is
0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Any

import workloads as wl
from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
# Set-up is repeated and its median reported, so one slow import does not
# decide setup_s.
SETUP_REPS = 9
# op_tail_ms is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
# Every reported time is scaled to a machine on which the workload's
# calibration kernels take this long.  On a shared 2-vCPU host the same op's
# wall time swings by up to 1.7x as other tenants load the core; stdlib-only
# kernels timed before and after every op swing with it, so the scaled time
# holds still.
CALIBRATION_REF_S = 0.010
_WIDE_A = Fraction(0xD1B54A32D192ED03, 0x9E3779B97F4A7C15)
_WIDE_B = Fraction(-0x8CB92BA72F3D8DD7, 0xBF58476D1CE4E5B9)


def small_fraction_kernel() -> None:
    """Interpreter-bound work on small fractions, about 10 ms."""
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)


def wide_fraction_kernel() -> None:
    """Big-integer-bound work on fractions growing to about 4 kbit, about 10 ms."""
    for _ in range(3):
        term, total = Fraction(1), Fraction(0)
        for _ in range(60):
            term = term * _WIDE_A + _WIDE_B
            total += term


# When the host frees the core, the small kernel speeds up about 1.9x, the
# wide one about 1.1x, and the interpreter-bound workloads 1.4x to 1.6x, in
# between; the wide workload barely moves.  So interpreter-bound workloads
# are scaled by the geometric mean of both kernels, the wide one by the
# wide kernel alone.
KERNELS = {
    "mixed": (small_fraction_kernel, wide_fraction_kernel),
    "wide": (wide_fraction_kernel,),
}


def calibrate(kernels: str) -> float:
    """Geometric mean of the kernels' current seconds, with the collector off
    so that heap state left by the program does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        product = 1.0
        for kernel in KERNELS[kernels]:
            start = time.perf_counter()
            kernel()
            product *= time.perf_counter() - start
        return product ** (1 / len(KERNELS[kernels]))
    finally:
        if enabled:
            gc.enable()


def speed_scales(kernel_s: list[float]) -> list[float]:
    """Speed scale of each interval between consecutive kernel readings.

    An interval uses the median of its two bounding readings and the median
    reading of the whole loop, so a reading skewed by an interrupt, or taken
    just as the host's load changed, does not decide the scale on its own.
    """
    typical = statistics.median(kernel_s)
    return [
        CALIBRATION_REF_S / statistics.median((a, b, typical))
        for a, b in zip(kernel_s, kernel_s[1:])
    ]


class ProgramMissing(RuntimeError):
    """The checkout holds no compderiv sources to benchmark."""


def import_program() -> Any:
    """Import compderiv afresh from this checkout's ``src``."""
    if not (SRC / "compderiv" / "__init__.py").is_file():
        raise ProgramMissing(f"no compderiv package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "compderiv" or n.startswith("compderiv.")]:
        del sys.modules[name]
    cd = importlib.import_module("compderiv")
    importlib.import_module("compderiv.cli")
    if Path(cd.__file__).resolve().parent != SRC / "compderiv":
        raise ProgramMissing(f"compderiv imported from {cd.__file__}, not from {SRC}")
    return cd


class Session:
    """One workload set up: the program imported, inputs drawn, caches warm."""

    def __init__(self, name: str, seed: int, n_ops: int) -> None:
        self.workload = wl.WORKLOADS[name]
        self.setup_s: list[float] = []
        kernel_s = [calibrate("mixed")]  # import and warm-up are interpreter-bound
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.cd = import_program()
            self.ops = self.workload.make_inputs(wl.rng_for(name, seed), n_ops)
            self.golden = self.workload.make_inputs(
                wl.rng_for(name, wl.DEFAULT_SEED), wl.GOLDEN_OPS
            )
            self.workload.warm_up(self.cd)
            self.setup_s.append(time.perf_counter() - start)
            kernel_s.append(calibrate("mixed"))
        self.setup_scales = speed_scales(kernel_s)

    def run_ops(self, ops: list[Any], tracer: Tracer | None = None) -> tuple[list[float], list[float], list[dict]]:
        """Closed loop over ``ops``: (raw seconds per op, speed scale per op, records).

        The calibration kernel runs before the first op and after every op.
        """
        records, times = [], []
        gc.collect()
        clock = time.perf_counter
        kernel_s = [calibrate(self.workload.kernels)]
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            try:
                record = self.workload.run_op(self.cd, op)
            except Exception as exc:  # a failing op is counted, not fatal
                record = {"error": f"{type(exc).__name__}: {exc}"}
            times.append(clock() - t0)
            kernel_s.append(calibrate(self.workload.kernels))
            records.append(record)
        return times, speed_scales(kernel_s), records

    def check(self, ops: list[Any], records: list[dict]) -> list[list[str]]:
        """Problems per op; an empty list means the op was correct."""
        out = []
        for op, record in zip(ops, records):
            if "error" in record:
                out.append([record["error"]])
                continue
            try:
                out.append(self.workload.check(self.cd, op, record))
            except Exception as exc:  # a check that cannot run is a failed op
                out.append([f"check raised {type(exc).__name__}: {exc}"])
        return out

    def golden_problems(self) -> list[str]:
        """Run the default-seed ops and compare their values with digests.json."""
        _times, _scales, records = self.run_ops(self.golden)
        problems = [p for found in self.check(self.golden, records) for p in found]
        expected = json.loads(DIGESTS.read_text()).get(self.workload.name)
        found = wl.digest(records)
        if found != expected:
            problems.append(f"digest of the default-seed values is {found}, recorded {expected}")
        return problems


def tail(ms_sorted: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops beyond
    it, never below the median (with fewer than 2 * TAIL_BEYOND ops it is p50)."""
    index = len(ms_sorted) - 1 - TAIL_BEYOND
    if index + 1 <= len(ms_sorted) / 2:
        return 50.0, statistics.median(ms_sorted)
    return 100.0 * (index + 1) / len(ms_sorted), ms_sorted[index]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def route_ms_by_order(tracer: Tracer, records: list[dict]) -> dict[str, dict[str, float]]:
    """Median inclusive ms per (order, route) on the pair workloads.

    The op calls its routes at top level in a fixed order, so the op's
    top-level spans line up with the routes its record says were run.
    """
    top: defaultdict[int, list[float]] = defaultdict(list)
    for name, start, end, parent, op, _child in tracer.spans:
        if parent == -1:
            top[op].append(end - start)
    samples: defaultdict[str, defaultdict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for op, record in enumerate(records):
        durations = iter(top[op])
        for rung in record.get("rungs", []):
            for route, value in rung["values"].items():
                if not isinstance(value, str):
                    samples[str(rung["n"])][route].append(1000 * next(durations))
    return {
        n: {route: round(statistics.median(v), 3) for route, v in routes.items()}
        for n, routes in samples.items()
    }


def op_summary(records: list[dict], times: list[float], scales: list[float],
               problems: list[list[str]]) -> list[dict]:
    out = []
    for record, seconds, scale, found in zip(records, times, scales, problems):
        row: dict[str, Any] = {"raw_ms": round(1000 * seconds, 3), "scale": round(scale, 4),
                               "problems": found}
        if "rungs" in record:
            row["rungs"] = wl.canonical(record["rungs"])
        out.append(row)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    workload = wl.WORKLOADS[name]
    n_ops = max(2, round(seconds / workload.op_seconds))
    session = Session(name, seed, n_ops)
    ops = session.ops[: math.ceil(n_ops / 2)] if trace else session.ops
    times, scales, records = session.run_ops(ops)
    scaled = [t * k for t, k in zip(times, scales)]
    problems = session.check(ops, records)
    failed = sum(1 for found in problems if found)
    attempted = len(ops)
    result: dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds,
                              "trace": int(trace), "machine": machine_facts(),
                              "raw_wall_s": sum(times)}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            times_t, scales_t, records_t = session.run_ops(ops, tracer)
        finally:
            tracer.uninstall()
        same = [wl.canonical(a) == wl.canonical(b) for a, b in zip(records, records_t)]
        failed += sum(1 for ok, found in zip(same, problems) if found or not ok)
        attempted += len(ops)
        metrics = layer_metrics(tracer)
        traced = sum(t * k for t, k in zip(times_t, scales_t))
        metrics["trace.overhead_ratio"] = (traced / sum(scaled), "ratio")
        result["route_ms_by_order"] = route_ms_by_order(tracer, records_t)
        result["counters"] = dict(sorted(tracer.counts.items()))
        result["self_s"] = tracer.self_seconds()
        result["spans"] = tracer.export_spans()
        result["ops"] = op_summary(records_t, times_t, scales_t, problems)
    else:
        wall = sum(scaled)
        ms = sorted(1000 * t for t in scaled)
        tail_pct, tail_ms = tail(ms)
        setup = [t * k for t, k in zip(session.setup_s, session.setup_scales)]
        metrics = {
            "wall_s": (wall, "s"),
            "ops_per_s": (len(ops) / wall, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        result["op_tail_percentile"] = tail_pct
        result["setup_raw_s"] = session.setup_s
        result["ops"] = op_summary(records, times, scales, problems)
    golden = session.golden_problems()
    attempted += 1
    failed += bool(golden)
    result.update(
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        golden_problems=golden,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return result


def report(result: dict[str, Any]) -> dict[str, Any]:
    """Print the human summary and return the result object for the last line."""
    facts = result["machine"]
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} ops={len(result['ops'])}")
    print(f"# machine: nproc={facts['nproc']} python={facts['python']} "
          f"cpu={facts['cpu_model']!r} commit={facts['git_commit']}")
    if "op_tail_percentile" in result:
        print(f"# op_tail_ms is p{result['op_tail_percentile']:.0f} of {len(result['ops'])} ops")
    markers = [v for row in result["ops"] for rung in row.get("rungs", [])
               for v in rung["values"].values() if str(v).startswith("skipped")]
    if markers:
        print(f"# {len(markers)} skip markers, e.g. {markers[0]!r}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {result['fail_ratio']:.6g} ({result['failed']} of {result['attempted']})")
    for i, row in enumerate(result["ops"]):
        for problem in row["problems"]:
            print(f"op {i}: {problem}", file=sys.stderr)
    for problem in result["golden_problems"]:
        print(f"golden: {problem}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter; metrics prefixed by workload."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    summary = report(result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
