import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from lowrank_als import als, bench, io, matrix, spectral, svd_convert, testmat, verify
from lowrank_als.als import (
    AlsConfig,
    als_init,
    als_run,
    als_trajectories,
    als_update_s,
    als_update_t,
    approximation_error,
    load_factorization,
    save_factorization,
)
from lowrank_als.io import save_matrix
from lowrank_als.matrix import BLOCK_BYTES, frobenius_norm, gaussian_matrix, orthonormal_basis
from lowrank_als.testmat import TestMatrixSpec, build_test_matrix
from lowrank_als.verify import projector

from oracles import ROUNDING_ALLOWANCE, normal_equations_solve, subspace_iteration_error


class TestConfigValidation:
    def test_rank_too_large(self):
        a = gaussian_matrix(8, 6, seed=0)
        with pytest.raises(ValueError):
            als_init(a, AlsConfig(rank_k=7, iterations_j=1, seed=0), (0,))

    def test_negative_iterations(self):
        a = gaussian_matrix(8, 6, seed=0)
        with pytest.raises(ValueError):
            als_init(a, AlsConfig(rank_k=2, iterations_j=-1, seed=0), (0,))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            als_run(np.ones((8, 6)), AlsConfig(rank_k=2, iterations_j=1, seed=-3))

    def test_negative_batch_seed(self):
        # The batch's seeds are drawn, not config.seed, which a batch ignores.
        config = AlsConfig(rank_k=2, iterations_j=1, seed=-1)
        assert [len(step) for step in als_trajectories(np.ones((8, 6)), config, (0, 1))] == [2, 2]
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            next(als_trajectories(np.ones((8, 6)), AlsConfig(rank_k=2, iterations_j=1, seed=0), (0, -1)))


class TestInit:
    def test_start_shape_and_rank(self):
        a = gaussian_matrix(8, 6, seed=3)
        state = als_init(a, AlsConfig(rank_k=2, iterations_j=1, seed=1), (1,))
        assert state.s.shape == (8, 2)
        assert np.linalg.matrix_rank(state.s) == 2

    def test_same_seed_same_start(self):
        a = gaussian_matrix(8, 6, seed=3)
        cfg = AlsConfig(rank_k=2, iterations_j=1, seed=5)
        assert np.array_equal(als_init(a, cfg, (cfg.seed,)).s, als_init(a, cfg, (cfg.seed,)).s)

    def test_stabilized_start_is_orthonormal(self):
        a = gaussian_matrix(8, 6, seed=3)
        state = als_init(a, AlsConfig(rank_k=2, iterations_j=1, seed=1), (1,))
        assert frobenius_norm(state.s.conj().T @ state.s - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("j", [0, 1])
    def test_zero_matrix_rejected(self, j):
        with pytest.raises(ValueError, match="rank 0"):
            als_run(np.zeros((5, 4)), AlsConfig(rank_k=2, iterations_j=j, seed=0))


class TestHalfSteps:
    def test_t_update_with_orthonormal_s(self):
        a = gaussian_matrix(6, 4, seed=2)
        state = als_init(a, AlsConfig(rank_k=2, iterations_j=1, seed=0), (0,))
        als_update_t(state)
        assert np.allclose(state.t, state.s.conj().T @ a, atol=1e-12)

    def test_s_update_spans_minimizer_columns(self):
        # The orthonormal S spans col(A T^+), and the tracked residual is the
        # minimizer's, checked against the normal-equations oracle.
        a = gaussian_matrix(6, 4, seed=4)
        state = als_init(a, AlsConfig(rank_k=2, iterations_j=1, seed=0, track_errors=True), (0,))
        als_update_t(state)
        t = state.t
        als_update_s(state)
        s_min = normal_equations_solve(t.conj().T, a.conj().T).conj().T
        assert frobenius_norm(state.s.conj().T @ state.s - np.eye(2)) <= 1e-12
        assert frobenius_norm(projector(state.s) - projector(s_min)) <= 1e-12
        want = frobenius_norm(s_min @ t - a)
        assert abs(state.error_trace[-1] - want) <= 1e-12 * frobenius_norm(a)

    def test_batch_s_update_conjugates_one_block_at_a_time(self):
        # A complex five-seed batch: the S-update's Q, the size of T, sits
        # beside one conjugated k-row block of T, never beside all of T*.
        a = gaussian_matrix(512, 1024, seed=64, field="complex")
        state = als_update_t(als_init(a, AlsConfig(rank_k=10, iterations_j=1, seed=0), seeds=range(5)))
        peak = _traced_peak(lambda: als_update_s(state))
        assert peak < 2 * state.t.nbytes


class TestRun:
    def test_exact_rank_k_after_one_iteration(self):
        g = gaussian_matrix(8, 2, seed=1)
        h = gaussian_matrix(2, 6, seed=2)
        a = g @ h
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=3))
        assert frobenius_norm(fact.s @ fact.t - a) <= 1e-10 * frobenius_norm(a)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diagonal_converges_to_second_singular_value(self, seed):
        a = np.diag([5.0, 3.0, 1.0])
        fact = als_run(a, AlsConfig(rank_k=1, iterations_j=5, seed=seed))
        err = svdvals(a - fact.s @ fact.t)[0]
        assert abs(err - 3.0) <= 1e-2 * 3.0

    def test_zero_iterations_is_projection_baseline(self):
        a = gaussian_matrix(8, 6, seed=4)
        cfg = AlsConfig(rank_k=2, iterations_j=0, seed=5)
        fact = als_run(a, cfg)
        state = als_init(a, cfg, (cfg.seed,))
        als_update_t(state)
        assert np.array_equal(fact.s, state.s)
        assert np.array_equal(fact.t, state.t)

    def test_error_trace_monotone(self):
        a = gaussian_matrix(10, 8, seed=6)
        fact = als_run(a, AlsConfig(rank_k=3, iterations_j=4, seed=7, track_errors=True))
        trace = fact.frobenius_error_trace
        assert len(trace) == 2 * 4 + 1
        slack = 1e-12 * frobenius_norm(a)
        assert all(b <= a_ + slack for a_, b in zip(trace, trace[1:]))

    def test_matches_truncated_svd_error(self):
        # Instance with a reasonable sigma_3/sigma_2 gap, so ten iterations
        # put the subspace error well below the comparison tolerance.
        a = gaussian_matrix(8, 6, seed=0)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=10, seed=9))
        als_err = approximation_error(a, fact, "frobenius")
        sigma = svdvals(a)
        optimal = np.sqrt(np.sum(sigma[2:] ** 2))
        assert abs(als_err - optimal) <= 1e-6 * optimal

    def test_spectral_error_never_beats_optimal(self):
        for seed in range(5):
            a = gaussian_matrix(8, 6, seed=100 + seed)
            fact = als_run(a, AlsConfig(rank_k=2, iterations_j=3, seed=seed))
            err = svdvals(a - fact.s @ fact.t)[0]
            sigma = svdvals(a)
            assert err >= sigma[2] - 1e-10 * sigma[0]

    def test_deterministic(self):
        a = gaussian_matrix(8, 6, seed=10)
        cfg = AlsConfig(rank_k=2, iterations_j=3, seed=11)
        f1 = als_run(a, cfg)
        f2 = als_run(a, cfg)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.t, f2.t)

    def test_complex_input(self):
        a = gaussian_matrix(8, 6, seed=12, field="complex")
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=3, seed=13))
        assert np.iscomplexobj(fact.s)
        err = svdvals(a - fact.s @ fact.t)[0]
        sigma = svdvals(a)
        assert sigma[2] - 1e-10 * sigma[0] <= err <= sigma[1]

    def test_degenerate_rank_below_k(self):
        # rank(A) = 1 < k = 2: S keeps two orthonormal columns, and the
        # factorization reproduces A exactly.
        g = gaussian_matrix(8, 1, seed=14)
        h = gaussian_matrix(1, 6, seed=15)
        a = g @ h
        cfg = AlsConfig(rank_k=2, iterations_j=2, seed=16)
        fact = als_run(a, cfg)
        assert fact.s.shape[1] == 2
        assert frobenius_norm(fact.s @ fact.t - a) <= 1e-10 * frobenius_norm(a)

    def test_exact_factorization_zero_error(self):
        g = gaussian_matrix(8, 2, seed=17)
        h = gaussian_matrix(2, 6, seed=18)
        a = g @ h
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=2, seed=19))
        for norm in ("spectral", "frobenius"):
            err = approximation_error(a, fact, norm)
            assert err <= 1e-12 * frobenius_norm(a)

    @settings(deadline=None)
    @given(
        rows=st.integers(2, 40),
        cols=st.integers(2, 40),
        field=st.sampled_from(["real", "complex"]),
        j=st.integers(0, 3),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_scale_safe_run(self, rows, cols, field, j, exponent, seed, data):
        # A whole run at scale 10^exponent: no column lost, never better than
        # optimal, and the measured errors scale with A.
        k = data.draw(st.integers(1, min(rows, cols) - 1), label="k")
        base = gaussian_matrix(rows, cols, seed, field)
        c = 10.0**exponent
        a = c * base
        cfg = AlsConfig(rank_k=k, iterations_j=j, seed=seed)
        fact = als_run(a, cfg)
        assert fact.s.shape[1] == k
        assert frobenius_norm(fact.s.conj().T @ fact.s - np.eye(k)) <= 1e-12
        sigma = svdvals(a)
        assert svdvals(a - fact.s @ fact.t)[0] >= sigma[k] - 1e-10 * sigma[0]
        base_fact = als_run(base, cfg)
        for norm in ("spectral", "frobenius"):
            want = approximation_error(base, base_fact, norm)
            assert abs(approximation_error(a, fact, norm) / c - want) <= 1e-10 * want


def _half_step_run(a, cfg):
    """(S_j, T_j) and the error trace from the half-steps themselves."""
    state = als_init(a, cfg, (cfg.seed,))
    for _ in range(cfg.iterations_j):
        als_update_t(state)
        als_update_s(state)
    als_update_t(state)
    return state


TRAJECTORY_INPUTS = pytest.mark.parametrize(
    "a, k",
    [
        (gaussian_matrix(12, 9, seed=30), 3),
        (gaussian_matrix(9, 12, seed=31, field="complex"), 3),
        # rank(A) = 2 < k = 4: every iterate still has four columns, two of
        # them rounding directions.
        (gaussian_matrix(12, 2, seed=32) @ gaussian_matrix(2, 9, seed=33), 4),
        (gaussian_matrix(300, 2, seed=32) @ gaussian_matrix(2, 200, seed=33), 4),
    ],
    ids=["real", "complex", "rank_below_k", "rank_below_k_300x200"],
)


class TestTrajectory:
    @TRAJECTORY_INPUTS
    def test_prefixes_equal_standalone_runs(self, a, k):
        big_j = 4
        config = AlsConfig(rank_k=k, iterations_j=big_j, seed=34, track_errors=True)
        trajectory = [f for (f,) in als_trajectories(a, config, (config.seed,))]
        assert [f.iterations_j for f in trajectory] == list(range(big_j + 1))
        for i, got in enumerate(trajectory):
            cfg = AlsConfig(rank_k=k, iterations_j=i, seed=34, track_errors=True)
            want = als_run(a, cfg)
            state = _half_step_run(a, cfg)
            assert np.array_equal(got.s, want.s) and np.array_equal(got.t, want.t)
            assert np.array_equal(got.s, state.s) and np.array_equal(got.t, state.t)
            assert got.frobenius_error_trace == want.frobenius_error_trace == state.error_trace
            assert got.s.shape[1] == k

    @TRAJECTORY_INPUTS
    def test_batch_matches_standalone_runs(self, a, k):
        # Seeds side by side share each product with A, which sums in another
        # order than a one-seed product: the same widths, and the same
        # approximations S T up to rounding.  Not the same col(S): for
        # rank(A) < k the columns beyond rank(A) are rounding directions,
        # which differ whenever the two runs round differently.
        big_j, seeds = 4, (34, 35, 36)
        batch = list(als_trajectories(a, AlsConfig(rank_k=k, iterations_j=big_j, seed=0), seeds))
        assert len(batch) == big_j + 1
        for i, factorizations in enumerate(batch):
            assert [(f.iterations_j, f.seed) for f in factorizations] == [(i, seed) for seed in seeds]
            for got in factorizations:
                want = als_run(a, AlsConfig(rank_k=k, iterations_j=i, seed=got.seed))
                assert got.s.shape == want.s.shape and got.t.shape == want.t.shape
                assert frobenius_norm(projector(got.s @ got.t) - projector(want.s @ want.t)) <= 1e-12

    def test_batch_refuses_error_tracking(self):
        a = gaussian_matrix(8, 6, seed=37)
        config = AlsConfig(rank_k=2, iterations_j=1, seed=0, track_errors=True)
        with pytest.raises(ValueError, match="one seed"):
            next(als_trajectories(a, config, (0, 1)))


def _count_as_matrix(monkeypatch):
    """Count as_matrix calls through every module of the package that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = matrix.as_matrix
    for module in (als, bench, io, matrix, spectral, svd_convert, testmat, verify):
        if getattr(module, "as_matrix", None) is original:
            monkeypatch.setattr(module, "as_matrix", counted)
    return calls


class TestValidateOnce:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("track_errors", [False, True])
    def test_one_validation_per_run(self, monkeypatch, field, track_errors):
        calls = _count_as_matrix(monkeypatch)
        a = gaussian_matrix(9, 7, seed=40, field=field)
        als_run(a, AlsConfig(rank_k=3, iterations_j=2, seed=1, track_errors=track_errors))
        assert len(calls) == 1

    def test_no_validation_on_bench_batch(self, monkeypatch):
        calls = _count_as_matrix(monkeypatch)
        spec = TestMatrixSpec(32, 64, 2, 1e-3)
        outcomes = bench._run_matrix(spec, [(j, seed) for j in (0, 2) for seed in (0, 1)])
        assert all(isinstance(outcome, bench.ExperimentRecord) for outcome in outcomes)
        assert calls == []

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_still_raises(self, field, value):
        # inf times a Gaussian entry of either sign sums to NaN in the sketch.
        a = gaussian_matrix(8, 6, seed=41, field=field)
        a[1, 2] = value
        config = AlsConfig(rank_k=2, iterations_j=1, seed=0)
        with pytest.raises(ValueError):
            als_run(a, config)
        with pytest.raises(ValueError):
            als_init(a, config, (config.seed,))
        with pytest.raises(ValueError):
            next(als_trajectories(a, config, (0, 1)))


class TestApproximationError:
    def test_power_and_exact_agree(self):
        a = gaussian_matrix(10, 8, seed=20)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=21))
        power = approximation_error(a, fact, "spectral")
        exact = svdvals(a - fact.s @ fact.t)[0]
        assert power <= exact * (1 + 1e-12)
        assert abs(power - exact) <= 1e-6 * exact

    def test_shape_mismatch(self):
        a = gaussian_matrix(8, 6, seed=22)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=23))
        with pytest.raises(ValueError):
            approximation_error(gaussian_matrix(8, 7, seed=0), fact)

    def test_unknown_norm(self):
        a = gaussian_matrix(8, 6, seed=24)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=25))
        with pytest.raises(ValueError):
            approximation_error(a, fact, "nuclear")

    @pytest.mark.parametrize("norm, factor", [("spectral", "s"), ("frobenius", "t")])
    def test_non_finite_factor_rejected(self, norm, factor):
        # A NaN in S or T would otherwise come back as a nan error.
        a = gaussian_matrix(8, 6, seed=26)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=27))
        bad = getattr(fact, factor).copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match=f"^{factor} contains non-finite entries"):
            approximation_error(a, dataclasses.replace(fact, **{factor: bad}), norm)


# Shapes whose residuals take several row blocks of BLOCK_BYTES, the last one
# ragged: with R = BLOCK_BYTES // 128 rows of 8 complex entries to a block,
# 2.5 R rows are 2R + R/2 (real) and R + R + R/2 (complex); and rows too long
# for a block, one row each.
_ROWS = BLOCK_BYTES // 128
BLOCKED_INPUTS = pytest.mark.parametrize(
    "shape, field, blocks",
    [
        ((5 * _ROWS // 2, 8), "real", 2),
        ((5 * _ROWS // 2, 8), "complex", 3),
        ((3, BLOCK_BYTES // 8 + 1), "real", 3),
    ],
    ids=["real", "complex", "one_row_blocks"],
)


def _count_norms(monkeypatch):
    """Count frobenius_norm calls made by the als module."""
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return frobenius_norm(x)

    monkeypatch.setattr(als, "frobenius_norm", counted)
    return calls


def _tracked_half_steps(a, k, j, start=None):
    """Each tracked residual next to its dense oracle ||left @ right - a||_F,
    and the final state; ``start``, if given, replaces the sketch's S_0."""
    state = als_init(a, AlsConfig(rank_k=k, iterations_j=j, seed=50, track_errors=True), (50,))
    if start is not None:
        state.s = start
    oracles = []
    for i in range(j + 1):
        if i:
            q = orthonormal_basis(state.t.conj().T)
            als_update_s(state)
            oracles.append(frobenius_norm((a @ q) @ q.conj().T - a))
        als_update_t(state)
        oracles.append(frobenius_norm(state.s @ state.t - a))
    return state.error_trace, oracles, state


class TestBlockedResidual:
    @BLOCKED_INPUTS
    def test_blocks_match_dense_oracle(self, monkeypatch, shape, field, blocks):
        a = gaussian_matrix(*shape, seed=51, field=field)
        left = gaussian_matrix(shape[0], 2, seed=52, field=field)
        right = gaussian_matrix(2, shape[1], seed=53, field=field)
        calls = _count_norms(monkeypatch)
        got = als._residual_norm(a, left, right)
        assert len(calls) == blocks + 1 and calls[-1] == (blocks,)
        assert abs(got - frobenius_norm(left @ right - a)) <= 1e-12 * frobenius_norm(a)

    @BLOCKED_INPUTS
    def test_tracked_trace_matches_dense_oracle(self, shape, field, blocks):
        a = gaussian_matrix(*shape, seed=54, field=field)
        trace, oracles, _ = _tracked_half_steps(a, 2, 2)
        assert len(trace) == 5
        assert np.allclose(trace, oracles, rtol=0, atol=1e-12 * frobenius_norm(a))

    def test_tracked_trace_rank_below_k(self):
        # rank(A) = 2 < k = 4: S has four columns, and the residual is rounding.
        a = gaussian_matrix(5000, 2, seed=55) @ gaussian_matrix(2, 8, seed=56)
        trace, oracles, state = _tracked_half_steps(a, 4, 2)
        assert state.s.shape[1] == 4
        assert np.allclose(trace, oracles, rtol=0, atol=1e-12 * frobenius_norm(a))

    @BLOCKED_INPUTS
    def test_approximation_error_matches_dense_oracle(self, shape, field, blocks):
        a = gaussian_matrix(*shape, seed=57, field=field)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=58))
        want = frobenius_norm(fact.s @ fact.t - a)
        assert abs(approximation_error(a, fact, "frobenius") - want) <= 1e-12 * frobenius_norm(a)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("exponent", [300, -300])
    def test_tracked_trace_scale_safe(self, field, exponent):
        # 600 rows of 5 BLOCK_BYTES / 16384 entries (160 at 512 KiB): 409 +
        # 191 rows (real), 204 + 204 + 192 (complex).
        base = gaussian_matrix(600, 5 * BLOCK_BYTES // 16384, seed=59, field=field)
        c = 10.0**exponent
        cfg = AlsConfig(rank_k=3, iterations_j=2, seed=60, track_errors=True)
        trace = np.array(als_run(c * base, cfg).frobenius_error_trace)
        want = np.array(als_run(base, cfg).frobenius_error_trace)
        assert np.all(np.isfinite(trace)) and np.all(trace > 0)
        assert np.all(np.abs(trace / c - want) <= 1e-10 * want)


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrackingMemory:
    # A of 4 MiB: one 512 KiB block is a.nbytes / 8, and a single m-by-n
    # temporary is a.nbytes.  as_matrix's bool isfinite array is a.nbytes / 8.
    A = gaussian_matrix(1024, 512, seed=61)
    LIMIT = A.nbytes / 4

    def test_tracked_run_peaks_as_untracked(self):
        untracked = _traced_peak(lambda: als_run(self.A, AlsConfig(rank_k=3, iterations_j=2, seed=62)))
        tracked = _traced_peak(
            lambda: als_run(self.A, AlsConfig(rank_k=3, iterations_j=2, seed=62, track_errors=True))
        )
        assert tracked - untracked <= self.LIMIT

    def test_frobenius_error_peak(self):
        fact = als_run(self.A, AlsConfig(rank_k=3, iterations_j=2, seed=63))
        peak = _traced_peak(lambda: approximation_error(self.A, fact, "frobenius"))
        assert peak <= self.LIMIT


def _direct_half_steps(a, k, j, seed):
    """Each tracked entry of a run next to the direct blocked residual of
    that half-step's factors."""
    state = als_init(a, AlsConfig(rank_k=k, iterations_j=j, seed=seed, track_errors=True), (seed,))
    direct = []
    for i in range(j + 1):
        if i:
            q = orthonormal_basis(state.t.conj().T)
            als_update_s(state)
            direct.append(als._residual_norm(a, a @ q, q.conj().T))
        als_update_t(state)
        direct.append(als._residual_norm(a, state.s, state.t))
    return state.error_trace, direct


def _count_residuals(monkeypatch):
    """Count the direct residuals the als module takes."""
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return residual_norm(*args)

    residual_norm = als._residual_norm
    monkeypatch.setattr(als, "_residual_norm", counted)
    return calls


# The bar of a downdated entry against its direct value.  The downdates since
# a direct entry cancel at most a factor 4 (the fallback rule), so an entry
# is off by at most 4 (1 + d) times the rounding of one direct residual or
# removed norm, d <= 4 downdates at j = 2.  Allowing 5 eps ||A||_F for that
# rounding gives 100 eps ||A||_F.
DOWNDATE_BAR = 100 * np.finfo(float).eps


class TestDowndatedTrace:
    def test_stressed_start_matches_dense_oracle(self):
        # A = g h + 1e-13 noise, k = 2, from an S_0 almost orthogonal to
        # col(g): the first S-update removes all but about 1e-9 of the
        # residual, the next T-update all but about 1e-4 of what is left.
        # Downdated, the first is lost to cancellation (it reads about
        # 20 times its direct value) and carries into the rest; the fallback
        # takes both directly.
        g = gaussian_matrix(600, 2, seed=70)
        a = g @ gaussian_matrix(2, 300, seed=71) + 1e-13 * gaussian_matrix(600, 300, seed=72)
        basis = orthonormal_basis(g)
        w = gaussian_matrix(600, 2, seed=73)
        start = orthonormal_basis(w - basis @ (basis.T @ w) + 1e-4 * basis)
        trace, oracles, _ = _tracked_half_steps(a, 2, 2, start=start)
        assert trace[1] <= 1e-8 * trace[0] and trace[2] <= 1e-3 * trace[1]
        assert np.allclose(trace, oracles, rtol=0, atol=DOWNDATE_BAR * frobenius_norm(a))

    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    @pytest.mark.parametrize("k", [2, 10])
    def test_small_delta_matches_direct_residual(self, transform, k):
        # delta = 1e-11: the residual is about 1e-10 ||A||_F, so a cancelling
        # downdate would show far above the bar.
        a = build_test_matrix(TestMatrixSpec(512, 1024, k, 1e-11, transform=transform))
        for seed in range(3):
            trace, direct = _direct_half_steps(a, k, 2, seed)
            assert np.allclose(trace, direct, rtol=0, atol=DOWNDATE_BAR * frobenius_norm(a))

    @pytest.mark.parametrize("j", [0, 2, 5])
    def test_one_direct_residual_per_run(self, monkeypatch, j):
        # A Gaussian A: no half-step removes more than a small share of the
        # residual, so every entry after the first is a downdate.
        a = gaussian_matrix(300, 200, seed=74)
        calls = _count_residuals(monkeypatch)
        fact = als_run(a, AlsConfig(rank_k=5, iterations_j=j, seed=75, track_errors=True))
        assert len(fact.frobenius_error_trace) == 2 * j + 1
        assert calls == [(300, 200)]

    @pytest.mark.parametrize("direct_error, direct_calls", [(1.0, 0), (5.0, 1)])
    def test_fallback_counts_from_last_direct_entry(self, monkeypatch, direct_error, direct_calls):
        # A downdate from 1 to 0.3: within a factor 4 of the entry before it,
        # so it stands when that entry was direct, but not when the last
        # direct entry was 5, whose downdates would then cancel a factor 16.
        a = gaussian_matrix(6, 4, seed=78)
        state = als_update_t(als_init(a, AlsConfig(rank_k=2, iterations_j=1, seed=79, track_errors=True), (79,)))
        state.error_trace[-1], state.direct_error = 1.0, direct_error
        calls = _count_residuals(monkeypatch)
        als._track(state, math.sqrt(1 - 0.3**2), state.s, state.t)
        assert len(calls) == direct_calls
        want = 0.3 if direct_calls == 0 else frobenius_norm(state.s @ state.t - a)
        assert state.error_trace[-1] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_tracked_state_holds_q_only(self, field):
        # Between half-steps a tracked state holds what an untracked one
        # does, plus the S-update's n-by-k Q and the trace's floats.
        m, n, k = 700, 300, 4
        a = gaussian_matrix(m, n, seed=76, field=field)

        def held(track_errors):
            state = als_init(a, AlsConfig(rank_k=k, iterations_j=2, seed=77, track_errors=track_errors), (77,))
            tracemalloc.start()
            try:
                sizes = []
                for step in (als_update_t, als_update_s, als_update_t, als_update_s, als_update_t):
                    step(state)
                    sizes.append(tracemalloc.get_traced_memory()[0])
                return np.array(sizes), state
            finally:
                tracemalloc.stop()

        untracked, _ = held(False)
        tracked, state = held(True)
        assert state.q is None
        assert np.all(tracked - untracked <= n * k * a.itemsize + 1024)


def _graded_matrix(field, tail):
    """sigma = (1, 1e-13 x9, tail x190), A = U diag(sigma) V^H at 300x200, and V.

    With k = 10, the sketch and the later blocks have pivots far below
    max(m, n) * eps of their largest, and every one of them is needed to
    reach sigma_{k+1} = tail.
    """
    sigma = np.concatenate([[1.0], np.full(9, 1e-13), np.full(190, tail)])
    u = np.linalg.qr(gaussian_matrix(300, 200, seed=61, field=field))[0]
    v = np.linalg.qr(gaussian_matrix(200, 200, seed=62, field=field))[0]
    return (u * sigma) @ v.conj().T, sigma, v


class TestNoColumnLost:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tail", [1e-14, 1e-15])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_graded_spectrum_reaches_next_singular_value(self, field, tail, seed):
        # At j = 1 one start can still be far from sigma_{k+1} in exact
        # arithmetic (real seed 0: 8.9 sigma_{k+1}, its V^H Omega is nearly
        # deficient in the leading k rows), so every j is held to the exact
        # error of its start, and j >= 2 also to the paper's claim.
        (a, sigma, v), k = _graded_matrix(field, tail), 10
        g = v.conj().T @ gaussian_matrix(200, k, seed, field)  # V^H Omega of the start als_init draws
        trajectory = als_trajectories(a, AlsConfig(rank_k=k, iterations_j=5, seed=seed), (seed,))
        for i, (fact,) in enumerate(trajectory):
            assert fact.s.shape[1] == k
            if i in (1, 2, 5):
                err = svdvals(a - fact.s @ fact.t)[0]
                assert err <= subspace_iteration_error(sigma, g, i) + ROUNDING_ALLOWANCE
                if i >= 2:
                    assert err <= 1.05 * sigma[k] + ROUNDING_ALLOWANCE

    def test_dft_spec_keeps_k_columns(self):
        # sigma_10 = delta = 1e-14: the A Q blocks have pivots below the
        # relative rank cutoff that orthonormal_basis no longer applies.
        a = build_test_matrix(TestMatrixSpec(128, 256, 10, 1e-14))
        config = AlsConfig(rank_k=10, iterations_j=10, seed=0)
        for factorizations in als_trajectories(a, config, range(5)):
            assert all(f.s.shape == (128, 10) and f.t.shape == (10, 256) for f in factorizations)


def _assert_full_rank_k(a, fact):
    """k = min(m, n) orthonormal columns of S, and a residual at rounding."""
    k = min(a.shape)
    assert fact.s.shape == (a.shape[0], k) and fact.t.shape == (k, a.shape[1])
    assert frobenius_norm(fact.s.conj().T @ fact.s - np.eye(k)) <= 1e-12
    assert svdvals(a - fact.s @ fact.t)[0] <= 1e-13 * svdvals(a)[0]


class TestRankKEqualsMinDimension:
    SHAPES = pytest.mark.parametrize("shape", [(12, 5), (5, 12), (7, 7)], ids=["tall", "wide", "square"])
    FIELDS = pytest.mark.parametrize("field", ["real", "complex"])

    @SHAPES
    @FIELDS
    def test_one_seed(self, shape, field):
        a = gaussian_matrix(*shape, seed=63, field=field)
        _assert_full_rank_k(a, als_run(a, AlsConfig(rank_k=min(shape), iterations_j=2, seed=64)))

    @SHAPES
    @FIELDS
    def test_batch(self, shape, field):
        a = gaussian_matrix(*shape, seed=65, field=field)
        config = AlsConfig(rank_k=min(shape), iterations_j=2, seed=0)
        for factorizations in als_trajectories(a, config, (66, 67, 68)):
            assert len(factorizations) == 3
            for fact in factorizations:
                _assert_full_rank_k(a, fact)


class TestSerialization:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_roundtrip(self, tmp_path, field):
        a = gaussian_matrix(8, 6, seed=26, field=field)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=2, seed=27, track_errors=True))
        save_factorization(tmp_path / "fact", fact)
        back = load_factorization(tmp_path / "fact")
        assert np.array_equal(back.s, fact.s)
        assert np.array_equal(back.t, fact.t)
        assert back.iterations_j == 2
        assert back.seed == 27
        assert back.frobenius_error_trace == pytest.approx(fact.frobenius_error_trace)

    def test_sidecar_fields(self, tmp_path):
        import json

        a = gaussian_matrix(8, 6, seed=28)
        fact = als_run(a, AlsConfig(rank_k=3, iterations_j=1, seed=29))
        save_factorization(tmp_path / "fact", fact)
        meta = json.loads((tmp_path / "fact" / "factorization.json").read_text())
        assert meta["rank_k"] == 3
        assert meta["iterations_j"] == 1
        assert meta["seed"] == 29
        assert set(meta) == {"rank_k", "iterations_j", "seed", "error_trace"}

    def test_extra_sidecar_keys_ignored(self, tmp_path):
        import json

        a = gaussian_matrix(8, 6, seed=30)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=31))
        save_factorization(tmp_path / "fact", fact)
        path = tmp_path / "fact" / "factorization.json"
        meta = json.loads(path.read_text())
        path.write_text(json.dumps({**meta, "mode": "stabilized"}))
        back = load_factorization(tmp_path / "fact")
        assert np.array_equal(back.s, fact.s)
        assert back.seed == 31

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda meta: [meta], id="not_an_object"),
            pytest.param(lambda meta: {k: v for k, v in meta.items() if k != "rank_k"}, id="no_rank_k"),
            pytest.param(lambda meta: {k: v for k, v in meta.items() if k != "iterations_j"}, id="no_iterations_j"),
            pytest.param(lambda meta: {k: v for k, v in meta.items() if k != "seed"}, id="no_seed"),
            pytest.param(lambda meta: {**meta, "iterations_j": "two"}, id="iterations_j_string"),
            pytest.param(lambda meta: {**meta, "iterations_j": 1.5}, id="iterations_j_float"),
            pytest.param(lambda meta: {**meta, "iterations_j": True}, id="iterations_j_bool"),
            pytest.param(lambda meta: {**meta, "iterations_j": -3}, id="iterations_j_negative"),
            pytest.param(lambda meta: {**meta, "seed": "31"}, id="seed_string"),
            pytest.param(lambda meta: {**meta, "seed": 31.5}, id="seed_float"),
            pytest.param(lambda meta: {**meta, "seed": False}, id="seed_bool"),
            pytest.param(lambda meta: {**meta, "error_trace": "0.5"}, id="trace_string"),
            pytest.param(lambda meta: {**meta, "error_trace": [0.5, "0.25"]}, id="trace_string_entry"),
            pytest.param(lambda meta: {**meta, "error_trace": [0.5, True]}, id="trace_bool_entry"),
            pytest.param(lambda meta: {**meta, "error_trace": [0.5, float("nan")]}, id="trace_nan"),
            pytest.param(lambda meta: {**meta, "error_trace": [float("inf")]}, id="trace_inf"),
            pytest.param(lambda meta: {**meta, "error_trace": [0.5]}, id="trace_too_short"),
            pytest.param(lambda meta: {**meta, "error_trace": [0.5, 0.4, 0.3, 0.2]}, id="trace_too_long"),
            pytest.param(lambda meta: {**meta, "error_trace": [-1.0, 0.5, 0.25]}, id="trace_negative"),
            pytest.param(lambda meta: {**meta, "error_trace": [1.0, 0.5, 10**400]}, id="trace_huge_int"),
        ],
    )
    def test_inconsistent_sidecar_rejected(self, tmp_path, edit):
        import json

        a = gaussian_matrix(8, 6, seed=35)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=31))
        directory = tmp_path / "fact"
        save_factorization(directory, fact)
        path = directory / "factorization.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(str(directory))):
            load_factorization(directory)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda text: text[: len(text) // 2].encode(), id="cut_in_half"),
            pytest.param(lambda text: b"\xff" + text.encode(), id="not_utf8"),
        ],
    )
    def test_undecodable_sidecar_rejected(self, tmp_path, damage):
        a = gaussian_matrix(8, 6, seed=38)
        directory = tmp_path / "fact"
        save_factorization(directory, als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=39)))
        path = directory / "factorization.json"
        path.write_bytes(damage(path.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(directory))):
            load_factorization(directory)

    def test_missing_error_trace_reads_as_none(self, tmp_path):
        import json

        a = gaussian_matrix(8, 6, seed=36)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=37, track_errors=True))
        save_factorization(tmp_path / "fact", fact)
        path = tmp_path / "fact" / "factorization.json"
        meta = json.loads(path.read_text())
        del meta["error_trace"]
        path.write_text(json.dumps(meta))
        assert load_factorization(tmp_path / "fact").frobenius_error_trace is None

    def test_rank_mismatch_rejected(self, tmp_path):
        a = gaussian_matrix(8, 6, seed=32)
        fact = als_run(a, AlsConfig(rank_k=2, iterations_j=1, seed=33))
        save_factorization(tmp_path / "fact", fact)
        save_matrix(tmp_path / "fact" / "t.alsm", gaussian_matrix(3, 6, seed=34))
        with pytest.raises(ValueError, match="rank_k"):
            load_factorization(tmp_path / "fact")
