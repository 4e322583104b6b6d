"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import inspect
import statistics
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.linalg import svdvals

from lowrank_als import verify
from lowrank_als.als import AlsConfig, als_run, als_trajectories
from lowrank_als.bench import SuiteConfig, run_suite
from lowrank_als.matrix import frobenius_norm, gaussian_matrix
from lowrank_als.spectral import power_method_norm
from lowrank_als.testmat import TestMatrixSpec, build_test_matrix, residual_coordinates, sigma_spectrum
from lowrank_als.verify import (
    check_column_space_theorem,
    check_minimizer_optimality,
    check_power_method,
    check_rank_chain,
    check_unrolled_recurrence,
)


def _report(number: int, title: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({title}): {detail}")
    assert passed, f"criterion {number} ({title}): {detail}"


DESK_SUITE = SuiteConfig(
    sizes=((512, 1024),),
    rank_deltas=((2, 1e-3), (10, 1e-3), (2, 1e-11), (10, 1e-11)),
    iteration_counts=(0, 1, 2, 10),
    seeds=(0, 1, 2, 3, 4),
)


@pytest.fixture(scope="module")
def desk_records():
    start = time.perf_counter()
    records, summary = run_suite(DESK_SUITE)
    elapsed = time.perf_counter() - start
    assert not summary["failures"], summary["failures"]
    return records, elapsed


def test_criterion_1_table_reproduction_desk_scale(desk_records):
    records, elapsed = desk_records
    cells = defaultdict(list)
    for rec in records:
        cells[(rec.j, rec.k, rec.delta)].append(rec.epsilon / rec.delta)
    problems = []
    j0_band = []
    for (j, k, delta), ratios in sorted(cells.items()):
        if j >= 2:
            good = sum(r <= 1.25 for r in ratios)
            if good < 4:
                problems.append((j, k, delta, ratios))
        elif j == 1:
            good = sum(r <= 2.0 for r in ratios)
            if good < 4:
                problems.append((j, k, delta, ratios))
        else:
            j0_band.extend(ratios)
    # j = 0 is the stochastic random-projection baseline: reported, gated
    # only by the wide order-of-magnitude band.
    j0_ok = all(0.99 <= r <= 500.0 for r in j0_band)
    timed_ok = elapsed < 120.0
    _report(
        1,
        "table reproduction, desk scale",
        not problems and j0_ok and timed_ok,
        f"{len(records)} cells in {elapsed:.1f}s; j=0 ratios in "
        f"[{min(j0_band):.1f}, {max(j0_band):.1f}]; gate violations: {problems or 'none'}",
    )


def test_criterion_2_table_reproduction_full_size():
    config = SuiteConfig(sizes=((2048, 4096),), rank_deltas=((2, 1e-3),), iteration_counts=(1,), seeds=(0,))
    records, summary = run_suite(config)
    assert not summary["failures"], summary["failures"]
    (rec,) = records
    ratio = rec.epsilon / rec.delta
    _report(
        2,
        "table reproduction, full size (j=1, k=2, delta=1e-3)",
        ratio <= 1.05,
        f"epsilon = {rec.epsilon:.4e}, epsilon/delta = {ratio:.4f} (gate 1.05)",
    )


def test_criterion_3_column_space_theorem():
    assert (verify.INSTANCES, verify.MAX_POWER, verify.TOL) == (20, 3, 1e-8)
    start = time.perf_counter()
    res = check_column_space_theorem()
    elapsed = time.perf_counter() - start
    _report(3, "column-space theorem", res.passed and elapsed < 1.0, f"{res.detail}, {elapsed:.2f}s")


def test_criterion_4_rank_chain():
    assert (verify.INSTANCES, verify.DEFICIENT_INSTANCES) == (20, 5)
    start = time.perf_counter()
    res = check_rank_chain()
    elapsed = time.perf_counter() - start
    _report(4, "rank chain", res.passed and elapsed < 1.0, f"{res.detail}, {elapsed:.2f}s")


def test_criterion_5_unrolled_recurrence():
    assert (verify.INSTANCES, verify.MAX_POWER, verify.TOL) == (20, 3, 1e-8)
    res = check_unrolled_recurrence()
    _report(5, "unrolled recurrence", res.passed, res.detail)


def test_criterion_6_minimizer_optimality():
    assert (verify.INSTANCES, verify.PERTURBATIONS) == (20, 100)
    res = check_minimizer_optimality()
    _report(6, "least-squares minimizer", res.passed, res.detail)


def test_criterion_7_optimality_floor_and_monotonicity():
    worst_floor = np.inf
    violations = []
    for seed in range(10):
        a = gaussian_matrix(12, 9, seed=8000 + seed)
        cfg = AlsConfig(rank_k=3, iterations_j=4, seed=seed, track_errors=True)
        fact = als_run(a, cfg)
        trace = fact.frobenius_error_trace
        slack = 1e-12 * frobenius_norm(a)
        if not all(b <= x + slack for x, b in zip(trace, trace[1:])):
            violations.append(("trace", seed))
        sigma = svdvals(a)
        err = svdvals(a - fact.s @ fact.t)[0]
        floor = sigma[3] - 1e-10 * sigma[0]
        worst_floor = min(worst_floor, err - floor)
        if err < floor:
            violations.append(("floor", seed))
    _report(
        7,
        "optimality floor and monotone trace",
        not violations,
        f"min (error - floor) = {worst_floor:.3e}; violations: {violations or 'none'}",
    )


def test_criterion_8_power_method_contract():
    # The check runs power_method_norm with its default iteration count.
    assert verify.N_OPERATORS == 50
    assert inspect.signature(power_method_norm).parameters["n_iters"].default == 100
    res = check_power_method()
    _report(8, "power-method contract", res.passed, res.detail)


def test_criterion_9_spectrum_fidelity():
    specs = [
        TestMatrixSpec(16, 16, 2, 1e-3),
        TestMatrixSpec(64, 48, 2, 1e-11),
        TestMatrixSpec(48, 64, 10, 1e-3),
        TestMatrixSpec(128, 96, 4, 0.5),
        TestMatrixSpec(256, 256, 10, 1e-11),
        TestMatrixSpec(256, 128, 2, 1e-3),
    ]
    worst_sig = 0.0
    worst_norm = 0.0
    for base in specs:
        for transform in ("dft", "real_orthogonal"):
            spec = TestMatrixSpec(base.m, base.n, base.k, base.delta, transform=transform, seed=1)
            a = build_test_matrix(spec)
            sig = svdvals(a)
            worst_sig = max(worst_sig, float(np.max(np.abs(sig - sigma_spectrum(spec)))))
            worst_norm = max(worst_norm, abs(float(sig[0]) - 1.0))
    _report(
        9,
        "spectrum fidelity",
        worst_sig <= 1e-12 and worst_norm <= 1e-12,
        f"max |sigma - prescribed| = {worst_sig:.2e}, max |norm - 1| = {worst_norm:.2e}",
    )


def test_criterion_10_timing_proportionality_report_only():
    sizes = [(512, 1024), (1024, 2048), (2048, 4096)]
    medians = []
    for m, n in sizes:
        spec = TestMatrixSpec(m, n, 2, 1e-3)
        a = build_test_matrix(spec)
        times = []
        for seed in range(3):
            cfg = AlsConfig(rank_k=2, iterations_j=2, seed=seed)
            t0 = time.perf_counter()
            als_run(a, cfg)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
        del a
    factors = [b / a for a, b in zip(medians, medians[1:])]
    monotone = all(b > a for a, b in zip(medians, medians[1:]))
    in_band = all(1.5 <= f <= 3.0 for f in factors)
    # Report-only: growth factors depend on machine load, so nothing is gated
    # beyond the suite having produced timings.
    detail = (
        f"median t by size {[f'{t:.3f}s' for t in medians]}, doubling factors "
        f"{[f'{f:.2f}' for f in factors]}, monotone={monotone}, in [1.5, 3.0]={in_band}"
    )
    _report(10, "timing proportionality (report only)", len(medians) == 3, detail)


def test_criterion_11_frobenius_near_optimal_desk_scale():
    # The paper's Frobenius-norm claim, measured exactly: in the test matrix's
    # coordinates ||A - S S^H A||_F is the Frobenius norm of the m-by-r
    # Sigma_r - W W[:r]^H Sigma, and the optimum is ||sigma_{k+1:}||_2.
    # j >= 2 is gated at 5%, the spectral gates' rule; j = 0 and j = 1 are
    # reported only.
    worst = defaultdict(float)  # (transform, j) -> largest ratio to the optimum
    for transform in ("dft", "real_orthogonal"):
        for k, delta in DESK_SUITE.rank_deltas:
            spec = TestMatrixSpec(512, 1024, k, delta, transform=transform)
            a = build_test_matrix(spec)
            # One batch of the seeds, as als-bench runs them, up to the largest j.
            config = AlsConfig(rank_k=k, iterations_j=max(DESK_SUITE.iteration_counts), seed=0)
            cells, blocks = [], []
            for j, factorizations in enumerate(als_trajectories(a, config, DESK_SUITE.seeds)):
                if j in DESK_SUITE.iteration_counts:
                    cells += [j] * len(factorizations)
                    blocks += [f.s for f in factorizations]
            sigma, pairs, _ = residual_coordinates(spec, blocks)
            dense = np.eye(*sigma.shape) * sigma.d
            optimum = frobenius_norm(sigma_spectrum(spec)[k:])
            for j, (w, x) in zip(cells, pairs):
                worst[transform, j] = max(worst[transform, j], frobenius_norm(dense - w @ x) / optimum)
    gated = {key: ratio for key, ratio in worst.items() if key[1] >= 2}
    _report(
        11,
        "Frobenius near-optimality, desk scale (j >= 2 gated at 1.05)",
        len(worst) == 8 and max(gated.values()) <= 1.05,
        ", ".join(f"{t} j={j}: {ratio:.4f}" for (t, j), ratio in sorted(worst.items())),
    )
