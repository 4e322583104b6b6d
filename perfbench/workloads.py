"""The benchmark's workloads.

Each workload repeats one fixed *pass* of operations, generated from the
workload seed, and checks every output.  Calls go through module attributes
(``bench.run_suite``, never a name imported from a module) so the span tracer
can intercept them.

- desk-suite: the default ``als-bench`` grid through ``run_suite``: 512x1024
  DFT, k in {2, 10}, delta in {1e-3, 1e-11}, j in {0, 1, 2, 10}, five ALS
  seeds; then the theory checks of ``als-bench --verify``.  Many short calls
  on an 8 MB matrix; per-call overhead and the power-method measurement
  dominate.  The checks (about 2% of the pass) run thousands of half-steps
  and kernel calls on 8x6 matrices, in raw mode too.  On their own they are
  too sensitive to the host's varying clock speed to carry a bound, so they
  ride along here and are measured per layer.
- full-cell: one paper-size cell through ``run_suite``: 2048x4096 DFT, k = 2,
  delta = 1e-3, j in {2, 10}.  A is 128 MB, so copies and passes over A
  dominate and the build is a large share.
- api-real: the library path of the Quick start and demo 02 on a tall real
  2048x1024 matrix built once in set-up: ``als_run`` with error tracking,
  ``factorization_to_svd``, then a save/load round trip.  The only workload
  on the real field, with m > n, error tracking, SVD conversion and io; it
  bypasses the power method and the DFT build.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from lowrank_als import als, bench, svd_convert, testmat, verify

# The paper's "few percent": every j >= 2 cell must have |epsilon/delta - 1|
# at most this.
EPS_BAND = 0.05
# Relative rounding allowed when comparing a Frobenius error to its exact optimum.
ROUNDING = 1e-9


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    als_ms: dict = field(default_factory=dict)  # j -> [ms per als_run]
    gaps: list = field(default_factory=list)  # accuracy gap per checked operation
    errors: list = field(default_factory=list)

    def add_als(self, j: int, ms: float) -> None:
        self.als_ms.setdefault(j, []).append(ms)


class SuiteWorkload:
    """A grid of table cells run by ``bench.run_suite``; one cell is one
    operation.  With ``with_checks`` the pass ends with ``verify.run_all()``,
    each check one more operation; the checks draw their own fixed instances."""

    def __init__(self, sizes, rank_deltas, iteration_counts, seeds, with_checks=False):
        self.with_checks = with_checks
        self.config = bench.SuiteConfig(
            sizes=sizes,
            rank_deltas=rank_deltas,
            iteration_counts=iteration_counts,
            seeds=seeds,
            transform="dft",
        )
        self.cells = len(sizes) * len(rank_deltas) * len(iteration_counts) * len(seeds)

    def setup(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        res = PassResult(attempted=self.cells)
        try:
            records, summary = bench.run_suite(self.config)
        except Exception as exc:  # noqa: BLE001 - every cell counts as failed
            return PassResult(attempted=self.cells, failed=self.cells, errors=[repr(exc)])
        for rec in records:
            res.add_als(rec.j, rec.t_seconds * 1e3)
            ratio = rec.epsilon / rec.delta
            if rec.j >= 2:
                res.gaps.append(abs(ratio - 1.0))
                ok = abs(ratio - 1.0) <= EPS_BAND
            else:
                ok = math.isfinite(rec.epsilon) and rec.epsilon > 0.0
            if not ok:
                res.failed += 1
                res.errors.append(f"j={rec.j} k={rec.k} delta={rec.delta} seed={rec.seed}: epsilon/delta={ratio}")
        res.failed += self.cells - len(records)
        res.errors.extend(str(f) for f in summary["failures"])
        if self.with_checks:
            _run_checks(res)
        return res

    def close(self) -> None:
        pass


class ApiRealWorkload:
    """Tracked ALS, SVD conversion and a save/load round trip; one round trip is one operation."""

    def __init__(self, spec, ops_per_pass: int, seed: int, out_dir):
        self.spec = spec
        self.als_seeds = [seed * ops_per_pass + i for i in range(ops_per_pass)]
        self.directory = out_dir / f"api-real-{time.monotonic_ns()}"
        self.a = None

    def setup(self) -> None:
        self.a = testmat.build_test_matrix(self.spec)
        sigma = testmat.sigma_spectrum(self.spec)
        self.frob_opt = float(np.sqrt(np.sum(sigma[self.spec.k :] ** 2)))

    def _round_trip(self, als_seed: int, res: PassResult) -> None:
        k = self.spec.k
        config = als.AlsConfig(rank_k=k, iterations_j=2, seed=als_seed, track_errors=True)
        start = time.perf_counter()
        fact = als.als_run(self.a, config)
        res.add_als(2, (time.perf_counter() - start) * 1e3)
        triplet = svd_convert.factorization_to_svd(fact.s, fact.t)
        als.save_factorization(self.directory, fact)
        back = als.load_factorization(self.directory)
        problems = []
        if not (
            np.array_equal(back.s, fact.s)
            and np.array_equal(back.t, fact.t)
            and back.frobenius_error_trace == fact.frobenius_error_trace
        ):
            problems.append("save/load round trip is not bit-exact")
        err = fact.frobenius_error_trace[-1]
        if not err >= self.frob_opt * (1.0 - ROUNDING):
            problems.append(f"Frobenius error {err!r} is below the optimum {self.frob_opt!r}")
        sigma = triplet.sigma
        if not (
            sigma.shape == (k,)
            and np.all(np.isfinite(sigma))
            and np.all(np.diff(sigma) <= 0.0)
            and sigma[-1] >= 0.0
        ):
            problems.append(f"singular values are not k nonnegative descending values: {sigma}")
        res.gaps.append(err / self.frob_opt - 1.0)
        if problems:
            res.failed += 1
            res.errors.append(f"seed {als_seed}: " + "; ".join(problems))

    def run_pass(self) -> PassResult:
        res = PassResult()
        for als_seed in self.als_seeds:
            res.attempted += 1
            try:
                self._round_trip(als_seed, res)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                res.failed += 1
                res.errors.append(f"seed {als_seed}: {exc!r}")
        return res

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def _run_checks(res: PassResult) -> None:
    """``verify.run_all()``; every check must pass."""
    try:
        results = verify.run_all()
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        res.attempted += 1
        res.failed += 1
        res.errors.append(repr(exc))
        return
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    res.attempted += len(results)
    res.failed += len(failed)
    res.errors.extend(failed)


WORKLOADS = ("desk-suite", "full-cell", "api-real")


def make_workload(name: str, seed: int, out_dir, tiny: bool = False):
    """The named workload with inputs from ``seed``; ``tiny`` shrinks it for
    warm-up and the self-test without changing which code paths run."""
    seed %= 2**32  # numpy seeds must be nonnegative
    if name == "desk-suite":
        return SuiteWorkload(
            sizes=((32, 64),) if tiny else ((512, 1024),),
            rank_deltas=((2, 1e-3), (10, 1e-3), (2, 1e-11), (10, 1e-11)),
            iteration_counts=(0, 1, 2, 10),
            seeds=tuple(range(5 * seed, 5 * seed + (1 if tiny else 5))),
            with_checks=not tiny,
        )
    if name == "full-cell":
        return SuiteWorkload(
            sizes=((48, 96),) if tiny else ((2048, 4096),),
            rank_deltas=((2, 1e-3),),
            iteration_counts=(2, 10),
            seeds=(seed,),
        )
    if name == "api-real":
        m, n = (64, 32) if tiny else (2048, 1024)
        spec = testmat.TestMatrixSpec(m, n, 10, 1e-3, transform="real_orthogonal", seed=seed)
        return ApiRealWorkload(spec, ops_per_pass=2 if tiny else 20, seed=seed, out_dir=out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
