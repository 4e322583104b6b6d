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
als-bench --full at k = 2 (figures in als.py).  After the batch, a single
power_method_norm(op, minus=...) call estimates the epsilons of all cells of
the matrix with shared applies of one operator; each differs from a
standalone measurement of its cell only by rounding.
ALS runs on the dense A, the rounding of the exact F Sigma G.  Every test
matrix, of either transform and any shape, is measured in its own
coordinates (testmat.residual_coordinates), with the dense A released
first: on the m-by-r residuals Sigma_r - W W[:r]^H Sigma, from the
protocol's start mapped there, so the 100 iterations read neither A nor F.
A test matrix has one outcome: a record for every cell or, if its build,
batch or measurement raises, one failure entry {"spec", "error"}.
A SuiteConfig is the grid alone; writing records to a file is up to the
caller (write_csv, write_json).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from .als import AlsConfig, als_trajectories
from .spectral import power_method_norm
from .testmat import TestMatrixSpec, build_test_matrix, residual_coordinates

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


def _run_matrix(spec: TestMatrixSpec, cells) -> list[ExperimentRecord]:
    """The records of the (j, seed) cells of one matrix, in cell order; raises what any step raises.

    Builds the dense A of ``spec``, runs the cells' seeds as one ALS batch on
    it as built (a finite C-ordered array, not validated again) up to the
    largest j, and keeps each cell's factors at its own j.  Its t_seconds is
    the batch's time from the start of the sketch to T_j, divided by the
    number of seeds: a one-seed batch makes the operations of a standalone
    run.  A is then released, and one power_method_norm call measures every
    epsilon in residual_coordinates(spec).  There is no partial result.
    """
    a = build_test_matrix(spec)
    seeds = tuple(dict.fromkeys(seed for _, seed in cells))
    wanted = {j for j, _ in cells}
    runs = {}  # (j, seed) -> (S_j of the seed, t_seconds)
    config = AlsConfig(rank_k=spec.k, iterations_j=max(wanted), seed=seeds[0])
    t0 = time.perf_counter()
    for i, factorizations in enumerate(als_trajectories(a, config, seeds)):
        t_seconds = (time.perf_counter() - t0) / len(seeds)
        if i in wanted:
            runs.update(((i, f.seed), (f.s, t_seconds)) for f in factorizations)
    del a  # the measurement does not read the dense build
    op, minus, start = residual_coordinates(spec, [runs[cell][0] for cell in cells])
    epsilons = power_method_norm(op, start=start, minus=minus)
    return [
        ExperimentRecord(
            m=spec.m,
            n=spec.n,
            transform=spec.transform,
            k=spec.k,
            delta=spec.delta,
            j=j,
            seed=seed,
            epsilon=epsilon,
            t_seconds=runs[j, seed][1],
        )
        for (j, seed), epsilon in zip(cells, epsilons)
    ]


def _validate_suite(config: SuiteConfig) -> list[TestMatrixSpec]:
    for name in ("sizes", "rank_deltas", "iteration_counts", "seeds"):
        values = getattr(config, name)
        if not values:
            raise ValueError(f"{name} must be nonempty")
        if len(set(values)) != len(values):
            raise ValueError(f"{name} has a repeated entry: {values}")
    if min(config.iteration_counts) < 0:
        raise ValueError("iteration_counts must be nonnegative")
    if min(config.seeds) < 0:
        raise ValueError("seeds must be nonnegative")
    specs = []
    for m, n in config.sizes:
        for k, delta in config.rank_deltas:
            specs.append(TestMatrixSpec(m, n, k, delta, transform=config.transform))
    return specs


def run_suite(config: SuiteConfig):
    """Run every (size, (k, delta), j, seed) cell; returns (records, summary).

    The test matrix for a spec is built once; all its cells share one ALS
    batch and one epsilon measurement, and they have one outcome: either
    every cell's record, or one failure entry {"spec", "error"} for the
    matrix, after which the suite continues with the next matrix.  A grid
    with an empty list, a repeated entry, a negative j or a negative seed
    raises ValueError before any matrix is built.
    """
    specs = _validate_suite(config)
    cells = [(j, seed) for j in config.iteration_counts for seed in config.seeds]
    records: list[ExperimentRecord] = []
    failures: list[dict] = []
    for spec in specs:
        try:
            records.extend(_run_matrix(spec, cells))
        except Exception as exc:  # noqa: BLE001 - a failed matrix; recorded, suite continues
            failures.append({"spec": asdict(spec), "error": str(exc)})
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
