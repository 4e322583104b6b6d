"""One measuring process of the benchmark; started by run.py.

Sets up the workload (imports, BLAS pin check, warm-up, inputs), prints
nothing until done, then prints one JSON line: the monotonic time at which
set-up finished, and unless ``--setup-only`` the measured metrics.
"""

import os

# Pin BLAS before numpy loads: OpenBLAS sizes its thread pool at load time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lowrank_als  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

# A median needs at least two passes; the longest pass takes about 12 s.
MIN_PASSES = 2

BANDWIDTH_NOTE = (
    "no bandwidth fraction is claimed: the last-level cache is shared and "
    "virtualized, and no workload's A exceeds 4x its reported size"
)


def _llc() -> dict | None:
    """The largest cache level the kernel reports for cpu0."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best["level"]:
            best = {"level": level, "size": size, "shared_cpu_list": shared}
    return best


def _blas(config: dict) -> dict:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def threads_observed() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def record_env() -> dict:
    """Versions, BLAS build, cores, LLC and the thread count actually running.

    Call after a warm-up: a multithreaded BLAS starts its pool on the first
    large GEMM, so the task count then shows whether the pin held.
    """
    observed = threads_observed()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "llc": _llc(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_observed": observed,
        "serial_enforced": observed == 1,
        "bandwidth": BANDWIDTH_NOTE,
        "computed_counts": "passes_over_a and *_bytes come from array sizes, not from hardware counters",
    }


def measure(workload, seconds: float, trace: bool, tracer: Tracer | None = None) -> dict:
    """Repeat passes for about ``seconds``.

    Untraced, at least MIN_PASSES passes run, and a further pass starts only
    if the median pass fits in the time left.  Traced, untraced and traced
    passes alternate, at least one of each, so the difference in their wall
    times is the tracing overhead.
    """
    walls, traced_walls = [], []
    attempted = failed = 0
    als_ms: dict[int, list[float]] = {}
    first_gaps = None
    errors: list[str] = []
    start = time.monotonic()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            tracer.begin_pass()
        t0 = time.perf_counter()
        res = workload.run_pass()
        wall = time.perf_counter() - t0
        if traced:
            tracer.end_pass(wall)
            traced_walls.append(wall)
        else:
            walls.append(wall)
            for j, times in res.als_ms.items():
                als_ms.setdefault(j, []).extend(times)
        if first_gaps is None:
            first_gaps = res.gaps
        attempted += res.attempted
        failed += res.failed
        errors.extend(res.errors[: max(0, 20 - len(errors))])
        enough = bool(traced_walls) if trace else len(walls) >= MIN_PASSES
        elapsed = time.monotonic() - start
        if enough and elapsed + statistics.median(walls + traced_walls) > seconds:
            break

    completed = attempted - failed
    run = {
        # The paper's t: median als_run time at the recommended j = 2, and at j = 10.
        "t_j2_ms": statistics.median(als_ms[2]) if als_ms.get(2) else 0.0,
        "t_j10_ms": statistics.median(als_ms[10]) if als_ms.get(10) else 0.0,
        # From the first pass only, so the value repeats exactly for a seed.
        "eps_gap_max": max(first_gaps) if first_gaps else 0.0,
        "fail_frac": failed / attempted,
    }
    if trace:
        metrics = tracer.layer_metrics()
        metrics.update(run)
        metrics["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        observed = threads_observed()
        metrics["env.blas_threads_observed"] = observed or 0
        metrics["env.serial_enforced"] = int(observed == 1)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "ops_per_s": completed / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extras": dict(run, passes=len(walls), traced_passes=len(traced_walls), errors=errors),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = p.parse_args(argv)

    if not Path(lowrank_als.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"lowrank_als imported from {lowrank_als.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    warm = make_workload(args.workload, args.seed, OUT_DIR, tiny=True)
    workload = make_workload(args.workload, args.seed, OUT_DIR, tiny=args.tiny)
    try:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((512, 512))
        a @ a
        warm.setup()
        warm.run_pass()
        env = record_env()
        tracer = Tracer() if args.trace else None
        workload.setup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        result = measure(workload, args.seconds, bool(args.trace), tracer)
    finally:
        warm.close()
        workload.close()
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    result.update(ready=ready, env=env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
