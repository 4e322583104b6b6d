import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from lowrank_als import testmat
from lowrank_als.cli import PAPER_SIZES
from lowrank_als.matrix import adjoint, frobenius_norm, gaussian_matrix, small_svd
from lowrank_als.spectral import DEFAULT_POWER_SEED, power_method_norm
from lowrank_als.testmat import (
    MEMORY_BUDGET,
    MemoryBudgetError,
    TestMatrixSpec,
    build_test_matrix,
    dft_coordinates,
    dft_operator,
    real_orthogonal_matrix,
    sigma_spectrum,
)

from oracles import dft_matrix


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
        assert frobenius_norm(adjoint(f) @ f - np.eye(8)) <= 1e-13

    def test_real_orthogonal_n1(self):
        q = real_orthogonal_matrix(1, seed=0)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_real_orthogonal_orthogonality(self, n):
        q = real_orthogonal_matrix(n, seed=3)
        assert frobenius_norm(q @ q.T - np.eye(n)) <= 1e-12

    def test_unitary_invariance_of_singular_values(self):
        d = np.array([3.0, 1.0, 0.25, 0.01])
        q1 = real_orthogonal_matrix(4, seed=4)
        q2 = real_orthogonal_matrix(4, seed=5)
        sig = small_svd(q1 @ np.diag(d) @ q2).sigma
        assert np.allclose(sig, d, atol=1e-12)


class TestBuildTestMatrix:
    def test_small_dft_spectrum(self):
        spec = TestMatrixSpec(4, 4, 2, 0.5)
        a = build_test_matrix(spec)
        sig = small_svd(a).sigma
        assert np.allclose(sig, [1.0, 0.5, 0.5, 0.0], atol=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [
            TestMatrixSpec(32, 64, 2, 1e-3),
            TestMatrixSpec(64, 32, 10, 1e-11),
            TestMatrixSpec(40, 40, 4, 0.25, transform="real_orthogonal", seed=1),
        ],
    )
    def test_spectrum_fidelity(self, spec):
        a = build_test_matrix(spec)
        assert a.shape == (spec.m, spec.n)
        sig = small_svd(a).sigma
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
        assert abs(small_svd(build_test_matrix(spec)).sigma[0] - 1.0) <= 1e-12

    def test_real_transform_yields_real_matrix(self):
        spec = TestMatrixSpec(16, 24, 2, 1e-3, transform="real_orthogonal")
        assert not np.iscomplexobj(build_test_matrix(spec))

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", 1000)
        spec = TestMatrixSpec(64, 64, 2, 1e-3)
        with pytest.raises(MemoryBudgetError) as err:
            build_test_matrix(spec)
        assert err.value.required_bytes > 1000

    @pytest.mark.parametrize("shape", [(32, 64), (7, 11), (45, 30)])
    def test_dft_memory_bound_is_exact(self, shape, monkeypatch):
        # sigma (real), [h, h] with 2 lcm(m, n) entries and the m-by-n result.
        m, n = shape
        spec = TestMatrixSpec(m, n, 2, 1e-3)
        required = min(m, n) * 8 + (2 * math.lcm(m, n) + m * n) * 16
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required - 1)
        with pytest.raises(MemoryBudgetError) as err:
            build_test_matrix(spec)
        assert err.value.required_bytes == required
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required)
        assert build_test_matrix(spec).shape == shape

    @pytest.mark.parametrize("shape", [(512, 64), (64, 512), (300, 500), (256, 256)])
    def test_real_memory_estimate_covers_traced_peak(self, shape, monkeypatch):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform="real_orthogonal")
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", 0)
        with pytest.raises(MemoryBudgetError) as err:
            build_test_matrix(spec)
        monkeypatch.undo()
        tracemalloc.start()
        try:
            build_test_matrix(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.required_bytes >= peak

    def test_paper_sizes_fit_default_budget(self, monkeypatch):
        # The sizes of als-bench --full, with either transform; a zero budget
        # reports the estimate without building anything.
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", 0)
        for m, n in PAPER_SIZES:
            for transform in ("dft", "real_orthogonal"):
                with pytest.raises(MemoryBudgetError) as err:
                    build_test_matrix(TestMatrixSpec(m, n, 10, 1e-3, transform=transform))
                assert err.value.required_bytes <= MEMORY_BUDGET


class TestDftOperator:
    @pytest.mark.parametrize("shape", [(32, 64), (64, 32), (37, 50), (50, 37)])
    def test_applies_match_dense_build(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3)
        a = build_test_matrix(spec)
        op = dft_operator(spec)
        assert op.shape == a.shape and op.dtype == np.complex128
        v = gaussian_matrix(spec.n, 3, seed=1, field="complex")
        u = gaussian_matrix(spec.m, 3, seed=2, field="complex")
        assert np.max(np.abs(op.matmat(v) - a @ v)) <= 1e-15
        assert np.max(np.abs(op.rmatmat(u) - adjoint(a) @ u)) <= 1e-15
        assert np.max(np.abs(op.matvec(v[:, 0]) - a @ v[:, 0])) <= 1e-15
        assert np.max(np.abs(op.rmatvec(u[:, 0]) - adjoint(a) @ u[:, 0])) <= 1e-15

    def test_real_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="dft"):
            dft_operator(TestMatrixSpec(16, 24, 2, 1e-3, transform="real_orthogonal"))


def _orthonormal_blocks(m, widths, seed):
    return [np.linalg.qr(gaussian_matrix(m, k, seed + i, "complex"))[0] for i, k in enumerate(widths)]


class TestDftCoordinates:
    @pytest.mark.parametrize("shape", [(32, 64), (37, 50), (40, 40)])
    def test_parts_match_dense_coordinates(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3)
        r = spec.m
        sig = sigma_spectrum(spec)
        blocks = _orthonormal_blocks(r, (2, 3), seed=5)
        sigma, pairs, start = dft_coordinates(spec, blocks)
        assert sigma.shape == (r, r) and sigma.dtype == np.float64
        x = gaussian_matrix(r, 2, seed=9, field="complex")
        assert np.array_equal(sigma.matmat(x), sig[:, None] * x)
        assert np.array_equal(sigma.rmatvec(x[:, 0]), sig * x[:, 0])
        f_h = dft_matrix(r).conj().T
        for s, (w, wh_sigma) in zip(blocks, pairs):
            assert np.max(np.abs(w - f_h @ s)) <= 1e-14
            assert np.array_equal(wh_sigma, adjoint(w) * sig)
        v0 = gaussian_matrix(spec.n, 1, DEFAULT_POWER_SEED, "complex")
        g_r = dft_matrix(spec.n)[:r]
        assert start.shape == (r, 1)
        assert np.max(np.abs(start - g_r @ v0)) <= 1e-13
        # The residual maps G_r^H x to F (Sigma - W W^H Sigma) x, so both
        # have one norm: the power iterations follow the same iterates.
        a = build_test_matrix(spec)
        s, (w, wh_sigma) = blocks[0], pairs[0]
        full = (a - s @ (adjoint(s) @ a)) @ (adjoint(g_r) @ x)
        reduced = sig[:, None] * x - w @ (wh_sigma @ x)
        assert np.max(np.abs(full - dft_matrix(r) @ reduced)) <= 1e-14

    @pytest.mark.parametrize("shape", [(32, 64), (37, 50), (40, 40)])
    def test_measurement_matches_dft_operator(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3)
        op = dft_operator(spec)
        blocks = _orthonormal_blocks(spec.m, (2, 3), seed=11)
        want = power_method_norm(op, minus=[(s, adjoint(op.rmatmat(s))) for s in blocks])
        sigma, pairs, start = dft_coordinates(spec, blocks)
        got = power_method_norm(sigma, start=start, minus=pairs)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w

    @pytest.mark.parametrize(
        "spec",
        [TestMatrixSpec(48, 32, 2, 1e-3), TestMatrixSpec(16, 24, 2, 1e-3, transform="real_orthogonal")],
        ids=["tall", "real_orthogonal"],
    )
    def test_tall_and_real_rejected(self, spec):
        with pytest.raises(ValueError, match="m <= n"):
            dft_coordinates(spec, [np.zeros((spec.m, 1))])
