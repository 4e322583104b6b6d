import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import get_lapack_funcs, qr, svdvals

from lowrank_als import testmat
from lowrank_als.cli import PAPER_SIZES
from lowrank_als.matrix import frobenius_norm, gaussian_matrix
from lowrank_als.spectral import DEFAULT_POWER_SEED, ColumnDiagonal, power_method_norm
from lowrank_als.testmat import (
    MEMORY_BUDGET,
    TestMatrixSpec,
    _reflectors,
    _working_set_bytes,
    build_test_matrix,
    orthonormal_columns,
    residual_coordinates,
    sigma_spectrum,
)

from oracles import ROUNDING_ALLOWANCE, complete_transform, dft_matrix, qr_built_real_test_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSpecValidation:
    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            TestMatrixSpec(16, 16, 3, 1e-3)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            TestMatrixSpec(8, 8, 8, 1e-3)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            TestMatrixSpec(16, 16, 2, 1.5)
        with pytest.raises(ValueError):
            TestMatrixSpec(16, 16, 2, 0.0)

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            TestMatrixSpec(16, 16, 2, 1e-3, transform="hadamard")

    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    def test_negative_seed_rejected(self, transform):
        # Refused for the DFT too, which does not read the seed.
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            TestMatrixSpec(64, 32, 2, 1e-3, transform=transform, seed=-1)

    def test_json_roundtrip(self):
        # run_suite's failure records hold asdict(spec) inside its JSON summary.
        spec = TestMatrixSpec(32, 16, 2, 1e-3, transform="real_orthogonal", seed=5)
        assert TestMatrixSpec(**json.loads(json.dumps(dataclasses.asdict(spec)))) == spec


class TestSigmaSpectrum:
    def test_k2_values(self):
        spec = TestMatrixSpec(2048, 4096, 2, 1e-3)
        sig = sigma_spectrum(spec)
        assert sig[0] == 1.0
        assert sig[1] == pytest.approx(1e-3, rel=1e-15)
        assert sig[2] == pytest.approx(1e-3, rel=1e-15)
        assert sig[-1] == 0.0

    def test_k10_values(self):
        spec = TestMatrixSpec(2048, 4096, 10, 1e-3)
        sig = sigma_spectrum(spec)
        assert sig[1] == pytest.approx(10 ** (-3 / 5), rel=1e-14)
        assert sig[2] == pytest.approx(10 ** (-3 / 5), rel=1e-14)
        assert sig[9] == pytest.approx(1e-3, rel=1e-14)
        assert sig[10] == pytest.approx(1e-3, rel=1e-14)

    @pytest.mark.parametrize(
        "spec",
        [
            TestMatrixSpec(64, 48, 2, 1e-3),
            TestMatrixSpec(48, 64, 10, 1e-11),
            TestMatrixSpec(33, 21, 4, 0.5),
        ],
    )
    def test_max_is_one_and_nonincreasing(self, spec):
        sig = sigma_spectrum(spec)
        assert sig.max() == 1.0
        assert np.all(np.diff(sig) <= 1e-15)

    def test_best_rank_k_error_is_delta(self):
        spec = TestMatrixSpec(64, 48, 2, 1e-3)
        assert sigma_spectrum(spec)[spec.k] == pytest.approx(1e-3, rel=1e-15)


class TestTransforms:
    def test_dft_n1(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_dft_n2(self):
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2), want, atol=1e-15)

    def test_dft_unitary(self):
        f = dft_matrix(8)
        assert frobenius_norm(f.conj().T @ f - np.eye(8)) <= 1e-13

    def test_real_orthogonal_n1(self):
        q = orthonormal_columns(1, 1, seed=0)
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_real_orthogonal_orthogonality(self, n):
        # Thin (r < n) and square (r = n) draws have orthonormal columns.
        for r in (1, n // 2, n):
            q = orthonormal_columns(n, r, seed=3)
            assert q.shape == (n, r) and q.dtype == np.float64
            assert frobenius_norm(q.T @ q - np.eye(r)) <= 1e-12

    def test_unitary_invariance_of_singular_values(self):
        d = np.array([3.0, 1.0, 0.25, 0.01])
        f_r = orthonormal_columns(6, 4, seed=4)
        g_r = orthonormal_columns(5, 4, seed=5).T
        sig = svdvals(f_r @ np.diag(d) @ g_r)
        assert np.allclose(sig, [*d, 0.0], atol=1e-12)


class TestBuildTestMatrix:
    def test_small_dft_spectrum(self):
        spec = TestMatrixSpec(4, 4, 2, 0.5)
        a = build_test_matrix(spec)
        sig = svdvals(a)
        assert np.allclose(sig, [1.0, 0.5, 0.5, 0.0], atol=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [
            TestMatrixSpec(32, 64, 2, 1e-3),
            TestMatrixSpec(64, 32, 10, 1e-11),
            TestMatrixSpec(40, 40, 4, 0.25, transform="real_orthogonal", seed=1),
            TestMatrixSpec(48, 20, 2, 1e-3, transform="real_orthogonal", seed=2),
            TestMatrixSpec(20, 48, 4, 1e-11, transform="real_orthogonal", seed=3),
        ],
    )
    def test_spectrum_fidelity(self, spec):
        a = build_test_matrix(spec)
        assert a.shape == (spec.m, spec.n)
        sig = svdvals(a)
        assert np.all(np.abs(sig - sigma_spectrum(spec)) <= 1e-12)

    # (7, 11) is coprime, so L = lcm(m, n) = m n; (45, 30) has gcd 15 and m > n.
    @pytest.mark.parametrize("shape", [(32, 64), (64, 32), (37, 50), (50, 37), (7, 11), (45, 30)])
    def test_fft_build_matches_dense_product(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3)
        r = min(shape)
        sig = sigma_spectrum(spec)
        dense = dft_matrix(spec.m)[:, :r] @ (sig[:, None] * dft_matrix(spec.n)[:r, :])
        assert np.max(np.abs(build_test_matrix(spec) - dense)) <= 1e-15

    def test_spectral_norm_is_one(self):
        spec = TestMatrixSpec(48, 32, 2, 1e-3)
        assert abs(svdvals(build_test_matrix(spec))[0] - 1.0) <= 1e-12

    def test_real_transform_yields_real_matrix(self):
        spec = TestMatrixSpec(16, 24, 2, 1e-3, transform="real_orthogonal")
        assert not np.iscomplexobj(build_test_matrix(spec))

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", 1000)
        spec = TestMatrixSpec(64, 64, 2, 1e-3)
        required = _working_set_bytes(spec)
        assert required > 1000
        with pytest.raises(ValueError, match=f"needs ~{required} bytes, over the budget of 1000 bytes"):
            build_test_matrix(spec)

    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    def test_over_budget_build_allocates_nothing(self, transform, monkeypatch):
        # The budget is checked before the first array of the build, even
        # the 16 KiB spectrum, exists.
        spec = TestMatrixSpec(4096, 2048, 2, 1e-3, transform=transform)
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", _working_set_bytes(spec) - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the budget"):
                build_test_matrix(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(spec.m, spec.n) * 8

    @pytest.mark.parametrize("shape", [(32, 64), (7, 11), (45, 30)])
    def test_dft_memory_bound_is_exact(self, shape, monkeypatch):
        # sigma (real), [h, h] with 2 lcm(m, n) entries and the m-by-n result.
        m, n = shape
        spec = TestMatrixSpec(m, n, 2, 1e-3)
        required = min(m, n) * 8 + (2 * math.lcm(m, n) + m * n) * 16
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required - 1)
        with pytest.raises(ValueError, match="over the budget"):
            build_test_matrix(spec)
        assert _working_set_bytes(spec) == required
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required)
        assert build_test_matrix(spec).shape == shape

    @pytest.mark.parametrize("shape", [(64, 32), (32, 64), (40, 40)])
    def test_real_memory_bound_is_exact(self, shape, monkeypatch):
        # F_r, Sigma G_r, the m-by-n result and four max(m, n)-by-r terms of
        # slack for what a peak resident set holds beyond these arrays
        # (freed arrays malloc keeps resident, buffers, whole pages); the
        # build itself holds no QR copy or R.
        m, n = shape
        r = min(m, n)
        spec = TestMatrixSpec(m, n, 2, 1e-3, transform="real_orthogonal")
        required = (m * r + r * n + m * n + 4 * max(m, n) * r) * 8
        assert _working_set_bytes(spec) == required
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required - 1)
        with pytest.raises(ValueError, match="over the budget"):
            build_test_matrix(spec)
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required)
        assert build_test_matrix(spec).shape == shape

    @pytest.mark.parametrize("shape", [(512, 64), (64, 512), (300, 500), (256, 256)])
    def test_real_memory_estimate_covers_traced_peak(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform="real_orthogonal")
        tracemalloc.start()
        try:
            build_test_matrix(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _working_set_bytes(spec) >= peak
        assert _working_set_bytes(spec) - 2 * max(shape) * min(shape) * 8 >= peak
        # Without the slack: F_r, Sigma G_r and the result, plus one draw
        # block, tau and the larger of geqrf's and orgqr's workspace.  The
        # build copies neither Gaussian, forms no R and scales G_r in place.
        m, n = shape
        r = min(m, n)
        probe = np.empty((max(m, n), r), order="F")
        lwork = max(
            get_lapack_funcs("geqrf", (probe,))(probe, lwork=-1, overwrite_a=True)[2][0],
            get_lapack_funcs("orgqr", (probe,))(probe, np.zeros(r), lwork=-1, overwrite_a=True)[1][0],
        )
        assert (m * r + r * n + m * n + r + int(lwork)) * 8 + testmat._DRAW_BLOCK_BYTES >= peak

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    @pytest.mark.parametrize("shape", [(3000, 800), (800, 3000), (1500, 1500)])
    def test_real_memory_estimate_covers_peak_rss(self, shape):
        # tracemalloc does not see LAPACK's work space or the freed arrays
        # malloc keeps resident; a process's peak resident set does.  A
        # process started from this one inherits its peak, so the build runs
        # in a child forked after a warm-up build, whose peak starts at its
        # parent's current resident set.  Resident arrays also round up to
        # whole (possibly 2 MiB huge) pages; at these shapes the estimate's
        # four max(m, n)-by-r terms of slack cover that.
        script = f"""
import os, resource
from lowrank_als.testmat import TestMatrixSpec, _working_set_bytes, build_test_matrix
spec = TestMatrixSpec({shape[0]}, {shape[1]}, 2, 1e-3, transform="real_orthogonal")
build_test_matrix(TestMatrixSpec(300, 200, 2, 1e-3, transform="real_orthogonal"))
pid = os.fork()
if pid == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    build_test_matrix(spec)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) * 1024, flush=True)
    os._exit(0)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
print(_working_set_bytes(spec))
"""
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        grown, required = map(int, proc.stdout.split())
        assert 0 < grown <= required

    def test_thin_real_spec_fits_default_budget(self):
        # A 32 MB result from 100 columns of a 40000-point draw.
        assert _working_set_bytes(TestMatrixSpec(40000, 100, 2, 1e-3, transform="real_orthogonal")) <= MEMORY_BUDGET

    def test_paper_sizes_fit_default_budget(self):
        # The sizes of als-bench --full, with either transform.
        for m, n in PAPER_SIZES:
            for transform in ("dft", "real_orthogonal"):
                assert _working_set_bytes(TestMatrixSpec(m, n, 10, 1e-3, transform=transform)) <= MEMORY_BUDGET


def _spy_on_geqrf(monkeypatch):
    """Record, for each factoring geqrf call of testmat, the array it gets and
    a copy of that array's values on entry (workspace queries are skipped)."""
    seen = []
    real = testmat.get_lapack_funcs

    def get_lapack_funcs_spy(names, arrays):
        funcs = real(names, arrays)
        if names != "geqrf":
            return funcs

        def geqrf(a, *args, **kwargs):
            if kwargs.get("lwork") != -1:
                seen.append((a, a.copy(order="A")))
            return funcs(a, *args, **kwargs)

        return geqrf

    monkeypatch.setattr(testmat, "get_lapack_funcs", get_lapack_funcs_spy)
    return seen


# (n, r) draws of several row blocks, the last one short: a thin draw, one
# column, and a square draw (n = r).
DRAW_CASES = pytest.mark.parametrize(
    "n, r", [(1000, 48), (10000, 1), (300, 300)], ids=["short_last_block", "one_column", "square"]
)


class TestInPlaceBuild:
    """The real build draws each Gaussian into geqrf's column order and
    factors it in place, with the bits of scipy's QR of the C-ordered draw."""

    @DRAW_CASES
    def test_block_draw_is_gaussian_matrix(self, n, r, monkeypatch):
        rows = testmat._DRAW_BLOCK_BYTES // (8 * r)
        assert n > rows and n % rows != 0
        seen = _spy_on_geqrf(monkeypatch)
        h, _ = _reflectors(n, r, 7)
        ((a, drawn),) = seen
        assert drawn.flags.f_contiguous
        assert np.array_equal(drawn, gaussian_matrix(n, r, 7, "real"))
        assert h is a  # factored in place, not copied

    @DRAW_CASES
    def test_reflectors_are_scipy_raw_qr(self, n, r):
        (h_want, tau_want), _ = qr(gaussian_matrix(n, r, 7, "real"), mode="raw")
        h, tau = _reflectors(n, r, 7)
        assert np.array_equal(h, h_want) and np.array_equal(tau, tau_want)

    @DRAW_CASES
    def test_q_formed_in_the_drawn_array(self, n, r, monkeypatch):
        seen = _spy_on_geqrf(monkeypatch)
        q = orthonormal_columns(n, r, 7)
        ((a, _),) = seen
        assert q is a and q.flags.f_contiguous
        assert np.array_equal(q, qr(gaussian_matrix(n, r, 7, "real"), mode="economic")[0])

    @pytest.mark.parametrize(
        "shape, seed", [((96, 48), 0), ((48, 96), 1), ((64, 64), 2), ((1000, 40), 7), ((30, 700), 42)]
    )
    def test_build_matches_qr_construction(self, shape, seed):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform="real_orthogonal", seed=seed)
        a = build_test_matrix(spec)
        assert a.flags.c_contiguous
        assert np.array_equal(a, qr_built_real_test_matrix(spec))


def _orthonormal_blocks(spec, widths, seed):
    # Arbitrary orthonormal blocks in the test matrix's field, not confined to range(F_r).
    field = "complex" if spec.transform == "dft" else "real"
    return [np.linalg.qr(gaussian_matrix(spec.m, k, seed + i, field))[0] for i, k in enumerate(widths)]


SHAPES = [(32, 64), (37, 50), (40, 40), (48, 32), (50, 37)]
# The DFT, the default transform, goes unnamed in the ids.
COORDINATE_CASES = pytest.mark.parametrize(
    "transform, shape",
    [("dft", shape) for shape in SHAPES] + [("real_orthogonal", shape) for shape in SHAPES],
    ids=[f"shape{i}" for i in range(len(SHAPES))] + [f"real_orthogonal-{m}x{n}" for m, n in SHAPES],
)


def _sparse_diagonal(sigma):
    """The ColumnDiagonal ``sigma`` as a scipy dia_array of the same matrix."""
    return scipy.sparse.dia_array((sigma.d[None, :], [0]), shape=sigma.shape)


class TestDftCoordinates:
    """residual_coordinates for both transforms, against the dense F and G_r."""

    @COORDINATE_CASES
    def test_parts_match_dense_coordinates(self, transform, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform=transform)
        m, r = spec.m, min(shape)
        field = "complex" if transform == "dft" else "real"
        sig = sigma_spectrum(spec)
        blocks = _orthonormal_blocks(spec, (2, 3), seed=5)
        sigma, pairs, start = residual_coordinates(spec, blocks)
        assert isinstance(sigma, ColumnDiagonal) and np.array_equal(sigma.d, sig)
        assert sigma.shape == (m, r) and sigma.dtype == np.float64
        # The dia_array that test_operand_matches_sparse_diagonal measures
        # the operand against applies exactly the [diag(sig); 0] it stands for.
        sparse = _sparse_diagonal(sigma)
        x = gaussian_matrix(r, 2, seed=9, field=field)
        u = gaussian_matrix(m, 2, seed=10, field=field)
        assert np.array_equal(sparse @ x, np.eye(m, r) @ (sig[:, None] * x))
        assert np.array_equal(sparse @ x[:, 0], np.eye(m, r) @ (sig * x[:, 0]))
        assert np.array_equal(sparse.T @ u, sig[:, None] * u[:r])
        assert np.array_equal(sparse.T @ u[:, 0], sig * u[:r, 0])
        f = complete_transform(spec)
        for s, (w, wh_sigma) in zip(blocks, pairs):
            assert w.dtype == s.dtype
            assert np.max(np.abs(w - f.conj().T @ s)) <= 1e-14
            assert np.array_equal(wh_sigma, w[:r].conj().T * sig)
        v0 = gaussian_matrix(spec.n, 1, DEFAULT_POWER_SEED, field)
        g_r = dft_matrix(spec.n)[:r] if transform == "dft" else orthonormal_columns(spec.n, r, spec.seed + 1).T
        assert start.shape == (r, 1) and start.dtype == v0.dtype
        assert np.max(np.abs(start - g_r @ v0)) <= 1e-13
        # The residual maps G_r^H x to F (Sigma_r - W W[:r]^H Sigma) x, so
        # both have one norm: the power iterations follow the same iterates.
        a = build_test_matrix(spec)
        s, (w, wh_sigma) = blocks[0], pairs[0]
        full = (a - s @ (s.conj().T @ a)) @ (g_r.conj().T @ x)
        reduced = sparse @ x - w @ (wh_sigma @ x)
        assert np.max(np.abs(full - f @ reduced)) <= 1e-14

    @COORDINATE_CASES
    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_operand_matches_sparse_diagonal(self, transform, shape, n_pairs):
        # power_method_norm applies the ColumnDiagonal by elementwise row
        # products and the same matrix as a dia_array through
        # aslinearoperator: the same products, so the same bits.
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform=transform)
        m, r = spec.m, min(shape)
        sigma, pairs, start = residual_coordinates(spec, _orthonormal_blocks(spec, (2,) * n_pairs, seed=13))
        # The tracer counts bytes of the measured operator from these two.
        assert sigma.shape == (m, r) and sigma.dtype == np.float64
        sparse = _sparse_diagonal(sigma)
        assert power_method_norm(sigma, start=start, minus=pairs) == power_method_norm(
            sparse, start=start, minus=pairs
        )
        assert power_method_norm(sigma, start=start) == power_method_norm(sparse, start=start)

    @COORDINATE_CASES
    def test_measurement_matches_dense_measurement(self, transform, shape):
        # On tall shapes the blocks reach outside range(F_r), so this fails
        # if the coordinates keep only the thin F_r^H S.
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform=transform)
        a = build_test_matrix(spec)
        # One width for both blocks: the pairs of one measurement share k.
        blocks = _orthonormal_blocks(spec, (2, 2), seed=11)
        want = power_method_norm(a, minus=[(s, s.conj().T @ a) for s in blocks])
        sigma, pairs, start = residual_coordinates(spec, blocks)
        got = power_method_norm(sigma, start=start, minus=pairs)
        # The dense A is the rounding of F Sigma G, a few eps away (||A|| = 1).
        for g, w in zip(got, want):
            assert abs(g - w) <= ROUNDING_ALLOWANCE / spec.delta * w
