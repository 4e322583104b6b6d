"""Benchmark harness: accuracy/timing tables for ALS low-rank approximation.

Each record is one table row (j, k, delta, epsilon, t): epsilon is the
spectral-norm error of the computed approximation, measured by
power_method_norm with its defaults (the paper's 100 iterations).  As in the
paper's table, every j of one seed comes from the same random start, and the
seeds of one test matrix run as one ALS batch (als_trajectories) up to the
largest j: each half-step is one product with A for all seeds, and a cell
keeps its seed's factors at its own j.  A cell's t_seconds is its share of
the batch: the batch's time from the start of its sketch to T_j, divided by
the number of seeds (matrix generation and error measurement excluded).
Batching pays most where a product with few columns is slowest, as for
als-bench --full at k = 2 (figures in als.py).  The cells of one test matrix
are measured together: after the batch, a single
power_method_norm(op, minus=...) call estimates all their epsilons with
shared applies of the test matrix.  Each estimate differs from a standalone
measurement of its cell only by rounding.
ALS runs on the dense A, the rounding of the exact F Sigma G.  A wide DFT
test matrix (m <= n, as in the default and paper grids) is measured in the
DFT's coordinates (testmat.dft_coordinates): on the r-by-r residuals
Sigma - W W^H Sigma, from the protocol's start mapped there, so the 100
iterations run on r-by-r operators without an FFT.  A tall one is measured
on dft_operator, F Sigma G applied by FFTs, and a real_orthogonal one on the
dense A.  A SuiteConfig is the grid alone; writing records to a file is up
to the caller (write_csv, write_json).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from .als import AlsConfig, als_trajectories
from .spectral import power_method_norm
from .testmat import TestMatrixSpec, build_test_matrix, dft_coordinates, dft_operator

CSV_HEADER = "m,n,transform,k,delta,j,seed,epsilon,t_seconds"


@dataclass(frozen=True)
class ExperimentRecord:
    m: int
    n: int
    transform: str
    k: int
    delta: float
    j: int
    seed: int
    epsilon: float
    t_seconds: float


@dataclass(frozen=True)
class SuiteConfig:
    sizes: tuple = ((512, 1024),)
    rank_deltas: tuple = ((2, 1e-3), (10, 1e-3), (2, 1e-11), (10, 1e-11))
    iteration_counts: tuple = (0, 1, 2, 10)
    seeds: tuple = (0, 1, 2, 3, 4)
    transform: str = "dft"


def _run_matrix(spec: TestMatrixSpec, cells) -> list:
    """A record, or the exception that stopped it, for each (j, seed) cell of one matrix.

    Builds the dense A of ``spec`` (and raises what the build raises), runs
    the cells' seeds as one ALS batch on it, up to the largest j, and keeps
    each cell's factors at its own j.  Its t_seconds is the batch's time from
    the start of the sketch to the moment T_j exists, divided by the number
    of seeds: a one-seed batch makes the operations of a standalone run of
    the cell.  A half-step that raises at step i fails the cells with j >= i
    of every seed.  One power_method_norm call then measures every
    epsilon: in dft_coordinates(spec) for a wide DFT matrix, on
    dft_operator(spec) for a tall one, with A released first since neither
    reads it, and on A otherwise.  If the measurement raises, its exception
    stands for every cell that reached it.
    """
    a = build_test_matrix(spec)
    seeds = tuple(dict.fromkeys(seed for _, seed in cells))
    wanted = {j for j, _ in cells}
    by_j = {}  # wanted j -> ({seed: factorization}, t_seconds)
    outcomes: list = [None] * len(cells)
    config = AlsConfig(rank_k=spec.k, iterations_j=max(wanted), seed=seeds[0])
    t0 = time.perf_counter()
    try:
        for i, factorizations in enumerate(als_trajectories(a, config, seeds)):
            t_seconds = (time.perf_counter() - t0) / len(seeds)
            if i in wanted:
                by_j[i] = (dict(zip(seeds, factorizations)), t_seconds)
    except Exception as exc:  # noqa: BLE001 - the caller records or raises it
        outcomes = [exc] * len(cells)  # the cells of every j not reached
    # (cell index, factorization, t_seconds) in cell order, the order of the measured pairs
    runs = [(index, by_j[j][0][seed], by_j[j][1]) for index, (j, seed) in enumerate(cells) if j in by_j]
    if not runs:
        return outcomes
    op = a if spec.transform == "real_orthogonal" else None
    del a  # a DFT matrix is measured without its dense build
    try:
        minus, start = [(f.s, f.t) for _, f, _ in runs], None
        if op is None and spec.m <= spec.n:
            op, minus, start = dft_coordinates(spec, [s for s, _ in minus])
        elif op is None:
            op = dft_operator(spec)
        epsilons = power_method_norm(op, start=start, minus=minus)
    except Exception as exc:  # noqa: BLE001
        for index, _, _ in runs:
            outcomes[index] = exc
        return outcomes
    for (index, _, t_seconds), epsilon in zip(runs, epsilons):
        j, seed = cells[index]
        outcomes[index] = ExperimentRecord(
            m=spec.m,
            n=spec.n,
            transform=spec.transform,
            k=spec.k,
            delta=spec.delta,
            j=j,
            seed=seed,
            epsilon=epsilon,
            t_seconds=t_seconds,
        )
    return outcomes


def _validate_suite(config: SuiteConfig) -> list[TestMatrixSpec]:
    if not config.sizes:
        raise ValueError("sizes must be nonempty")
    if not config.rank_deltas:
        raise ValueError("rank_deltas must be nonempty")
    if not config.iteration_counts:
        raise ValueError("iteration_counts must be nonempty")
    if not config.seeds:
        raise ValueError("seeds must be nonempty")
    if min(config.iteration_counts) < 0:
        raise ValueError("iteration_counts must be nonnegative")
    specs = []
    for m, n in config.sizes:
        for k, delta in config.rank_deltas:
            specs.append(TestMatrixSpec(m, n, k, delta, transform=config.transform))
    return specs


def run_suite(config: SuiteConfig):
    """Run every (size, (k, delta), j, seed) cell; returns (records, summary).

    The test matrix for a spec is built once; all its cells share it and one
    epsilon measurement.  Per-cell failures are recorded in the summary and
    the suite continues; a failed measurement fails every cell it covered.
    """
    specs = _validate_suite(config)
    cells = [(j, seed) for j in config.iteration_counts for seed in config.seeds]
    records: list[ExperimentRecord] = []
    failures: list[dict] = []
    for spec in specs:
        try:
            outcomes = _run_matrix(spec, cells)
        except Exception as exc:  # noqa: BLE001 - a failed build; recorded, suite continues
            failures.append({"spec": asdict(spec), "error": str(exc)})
            continue
        for (j, seed), outcome in zip(cells, outcomes):
            if isinstance(outcome, Exception):
                failures.append({"spec": asdict(spec), "j": j, "seed": seed, "error": str(outcome)})
            else:
                records.append(outcome)
    return records, summarize(records, failures)


def summarize(records: list[ExperimentRecord], failures: list[dict]) -> dict:
    """Max epsilon/delta ratio per iteration count, the failures and the record count."""
    ratios: dict[int, float] = {}
    for rec in records:
        ratio = rec.epsilon / rec.delta
        ratios[rec.j] = max(ratios.get(rec.j, 0.0), ratio)
    return {
        "max_epsilon_over_delta_by_j": {str(j): ratios[j] for j in sorted(ratios)},
        "failures": failures,
        "n_records": len(records),
    }


def write_csv(path, records: list[ExperimentRecord]) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(
                f"{rec.m},{rec.n},{rec.transform},{rec.k},{rec.delta:.17g},"
                f"{rec.j},{rec.seed},{rec.epsilon:.17g},{rec.t_seconds:.6g}\n"
            )


def write_json(path, records: list[ExperimentRecord], summary: dict) -> None:
    with open(path, "w") as f:
        json.dump({"records": [asdict(rec) for rec in records], "summary": summary}, f, indent=2)
