"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload through run.py with tiny inputs, untraced and traced, and
checks that the result line has the agreed shape, that every metric named in
BENCHMARK.json is emitted with its unit, that BLAS ran on one thread, and
that the per-layer self times (bench.self_s among them) account for the
untraced wall time to within the tracing overhead.  Finally it checks that
the benchmark fails, without a result, when the package source is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Share of the untraced wall time that the perfbench code between spans
# (output checks, loop bookkeeping) may add on top of the tracing overhead.
ACCOUNTING_SLACK = 0.05


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict[str, str], label: str) -> dict[str, float]:
    problems = []
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {expected.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    if problems:
        raise AssertionError(f"{label}: " + "; ".join(problems))
    return {name: entry["value"] for name, entry in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = [name[: -len(".self_s")] for name in per_layer if name.endswith(".self_s")]
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"]
        try:
            e2e = check_result(run(ROOT, *base, "--trace", "0"), end_to_end, f"{workload} untraced")
            zero = [name for name, value in e2e.items() if value <= 0]
            if zero:
                raise AssertionError(f"{workload} untraced: nonpositive {zero}")
            traced = check_result(run(ROOT, *base, "--trace", "1"), per_layer, f"{workload} traced")
            if traced["env.serial_enforced"] != 1 or traced["env.blas_threads_observed"] != 1:
                raise AssertionError(f"{workload} traced: BLAS not pinned to one thread")
            overhead = traced["trace.overhead_s"]
            untraced_wall = traced["trace.wall_s"] - overhead
            self_total = sum(traced[f"{layer}.self_s"] for layer in layers)
            gap = abs(untraced_wall - self_total)
            if gap > abs(overhead) + ACCOUNTING_SLACK * untraced_wall:
                raise AssertionError(
                    f"{workload} traced: layer self times sum to {self_total:.6f} s against an "
                    f"untraced wall of {untraced_wall:.6f} s, tracing overhead {overhead:.6f} s"
                )
            print(f"[PASS] {workload}: {len(e2e)} end-to-end and {len(traced)} per-layer metrics")
        except (AssertionError, json.JSONDecodeError, IndexError, KeyError) as exc:
            failures.append(workload)
            print(f"[FAIL] {exc}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "desk-suite", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare")
        print(f"[FAIL] without the package source: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"[PASS] without the package source: exit {proc.returncode}, no result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
