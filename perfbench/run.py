"""Benchmark of lowrank_als: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-suite --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Every measurement runs in a child process (worker.py) with BLAS pinned to one
thread before numpy loads.  Set-up is repeated in further children and its
median reported.  The line before the result holds the environment record
and the workload-specific figures (t_j2_ms, t_j10_ms, eps_gap_max,
fail_frac).

Exit status: 0 when every output checked correct, 1 when some did not (the
result is still printed), 2 on bad arguments or when the package source is
missing, 3 when a worker fails or runs out of time (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its spawn time and its JSON line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        p.error(f"--workload must be one of {', '.join(workloads)}")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must lie in [1, 120]")
    if not (ROOT / "src" / "lowrank_als" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'lowrank_als'}", file=sys.stderr)
        return 2

    worker_argv = [f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds}"]
    worker_argv += [f"--trace={args.trace}"] + (["--tiny"] if args.tiny else [])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        # The traced run reports no set-up time, so it sets up only once.
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            spawned, out = run_worker(worker_argv + ["--setup-only"], deadline)
            setups.append(out["ready"] - spawned)
        spawned, result = run_worker(worker_argv, deadline)
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    setups.append(result["ready"] - spawned)
    unnamed = sorted(set(result["metrics"]) - set(units))
    if unnamed:
        print(f"perfbench: metrics missing from BENCHMARK.json: {unnamed}", file=sys.stderr)
        return 3

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": units["setup_s"]}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
    context = {"workload": args.workload, "seed": args.seed, "setup_samples_s": setups}
    print(json.dumps(dict(context, env=result["env"], extras=result["extras"])))
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps(dict(summary, metrics=metrics)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
