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
from scipy.linalg import svdvals

from lowrank_als import testmat
from lowrank_als.cli import PAPER_SIZES
from lowrank_als.matrix import frobenius_norm, gaussian_matrix
from lowrank_als.spectral import DEFAULT_POWER_SEED, ColumnDiagonal, power_method_norm
from lowrank_als.testmat import (
    MEMORY_BUDGET,
    TestMatrixSpec,
    _hartley,
    _working_set_bytes,
    build_test_matrix,
    residual_coordinates,
    sigma_spectrum,
)
from lowrank_als.verify import _orthonormal_columns

from oracles import ROUNDING_ALLOWANCE, complete_transform, dense_real_test_matrix, dft_matrix, dht_matrix

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

    def test_dht_n2(self):
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(dht_matrix(2), want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_dht_orthogonal(self, n):
        # H is symmetric, so H H = I is its orthogonality.
        h = dht_matrix(n)
        assert np.array_equal(h, h.T)
        assert frobenius_norm(h @ h - np.eye(n)) <= 1e-13

    @pytest.mark.parametrize("m", [7, 16])
    def test_hartley_matches_dht_matrix(self, m):
        # The fast transform of testmat, down the columns of a block.
        x = gaussian_matrix(m, 3, seed=8)
        assert np.max(np.abs(_hartley(x) - dht_matrix(m) @ x)) <= 1e-14

    # verify's random orthonormal instances.
    def test_real_orthogonal_n1(self):
        q = _orthonormal_columns(1, 1, seed=0)
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_real_orthogonal_orthogonality(self, n):
        # Thin (r < n) and square (r = n) draws have orthonormal columns.
        for r in (1, n // 2, n):
            q = _orthonormal_columns(n, r, seed=3)
            assert q.shape == (n, r) and q.dtype == np.float64
            assert frobenius_norm(q.T @ q - np.eye(r)) <= 1e-12

    def test_unitary_invariance_of_singular_values(self):
        d = np.array([3.0, 1.0, 0.25, 0.01])
        f_r = _orthonormal_columns(6, 4, seed=4)
        g_r = _orthonormal_columns(5, 4, seed=5).T
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

    @pytest.mark.parametrize("shape", [(96, 48), (48, 96), (64, 64), (1000, 40), (30, 700), (7, 11)])
    def test_dht_build_matches_dense_product(self, shape):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform="real_orthogonal")
        a = build_test_matrix(spec)
        assert a.flags.c_contiguous and a.dtype == np.float64
        # ||A|| = 1, so an absolute bar.
        assert np.max(np.abs(a - dense_real_test_matrix(spec))) <= 1e-15
        # No transform reads the seed.
        assert np.array_equal(build_test_matrix(dataclasses.replace(spec, seed=7)), a)

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

    # (7, 11) is coprime, so the FFT's 10 L entries outweigh [h, h] and the result.
    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    @pytest.mark.parametrize("shape", [(64, 32), (32, 64), (40, 40), (7, 11), (45, 30)])
    def test_memory_bound_is_exact(self, shape, transform, monkeypatch):
        # sigma, then the larger of the FFT and [h, h] with the m-by-n
        # result, and the 6 MiB allowance.
        m, n = shape
        spec = TestMatrixSpec(m, n, 2, 1e-3, transform=transform)
        period = math.lcm(m, n)
        itemsize = 16 if transform == "dft" else 8
        required = min(m, n) * 8 + max(10 * period * 16, 2 * period * 16 + m * n * itemsize) + (6 << 20)
        assert _working_set_bytes(spec) == required
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required - 1)
        with pytest.raises(ValueError, match="over the budget"):
            build_test_matrix(spec)
        monkeypatch.setattr(testmat, "MEMORY_BUDGET", required)
        assert build_test_matrix(spec).shape == shape

    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    @pytest.mark.parametrize("shape", [(512, 64), (64, 512), (300, 500), (256, 256)])
    def test_memory_estimate_covers_traced_peak(self, shape, transform):
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform=transform)
        tracemalloc.start()
        try:
            build_test_matrix(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _working_set_bytes(spec) >= peak

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    @pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
    @pytest.mark.parametrize("shape", [(3000, 800), (800, 3000), (1500, 1500)])
    def test_memory_estimate_covers_peak_rss(self, shape, transform):
        # tracemalloc sees neither the FFT's buffers, the code pages a build
        # runs nor the freed arrays malloc keeps resident; a process's peak
        # resident set does.  A process started from this one inherits its
        # peak, so the build runs in a child forked after a warm-up build,
        # whose peak starts at its parent's current resident set.  Resident
        # arrays also round up to whole (possibly 2 MiB huge) pages.
        script = f"""
import os, resource
from lowrank_als.testmat import TestMatrixSpec, _working_set_bytes, build_test_matrix
spec = TestMatrixSpec({shape[0]}, {shape[1]}, 2, 1e-3, transform="{transform}")
build_test_matrix(TestMatrixSpec(300, 200, 2, 1e-3, transform="{transform}"))
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
        # A 32 MB result; L = 40000, so the FFT's share is small.
        assert _working_set_bytes(TestMatrixSpec(40000, 100, 2, 1e-3, transform="real_orthogonal")) <= MEMORY_BUDGET

    def test_paper_sizes_fit_default_budget(self):
        # The sizes of als-bench --full, with either transform.
        for m, n in PAPER_SIZES:
            for transform in ("dft", "real_orthogonal"):
                assert _working_set_bytes(TestMatrixSpec(m, n, 10, 1e-3, transform=transform)) <= MEMORY_BUDGET


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
        x = gaussian_matrix(r, 2, seed=9, field=field)
        f = complete_transform(spec)
        for s, (w, wh_sigma) in zip(blocks, pairs):
            assert w.dtype == s.dtype
            assert np.max(np.abs(w - f.conj().T @ s)) <= 1e-14
            assert np.array_equal(wh_sigma, w[:r].conj().T * sig)
        v0 = gaussian_matrix(spec.n, 1, DEFAULT_POWER_SEED, field)
        g_r = dft_matrix(spec.n)[:r] if transform == "dft" else dht_matrix(spec.n)[:r]
        assert start.shape == (r, 1) and start.dtype == v0.dtype
        assert np.max(np.abs(start - g_r @ v0)) <= 1e-13
        # The residual maps G_r^H x to F (Sigma_r - W W[:r]^H Sigma) x, so
        # both have one norm: the power iterations follow the same iterates.
        a = build_test_matrix(spec)
        s, (w, wh_sigma) = blocks[0], pairs[0]
        full = (a - s @ (s.conj().T @ a)) @ (g_r.conj().T @ x)
        reduced = (np.eye(m, r) * sig) @ x - w @ (wh_sigma @ x)
        assert np.max(np.abs(full - f @ reduced)) <= 1e-14

    @COORDINATE_CASES
    @pytest.mark.parametrize("n_pairs", [1, 3])
    def test_operand_matches_sparse_diagonal(self, transform, shape, n_pairs):
        # power_method_norm applies the ColumnDiagonal [diag(d); 0] by
        # elementwise row products, and the same sparse diagonal held as a
        # dense array by matrix products whose other terms are exact zeros:
        # the same bits.
        spec = TestMatrixSpec(*shape, 2, 1e-3, transform=transform)
        m, r = spec.m, min(shape)
        sigma, pairs, start = residual_coordinates(spec, _orthonormal_blocks(spec, (2,) * n_pairs, seed=13))
        # The tracer counts bytes of the measured operator from these two.
        assert sigma.shape == (m, r) and sigma.dtype == np.float64
        dense = np.eye(m, r) * sigma.d
        assert power_method_norm(sigma, start=start, minus=pairs) == power_method_norm(dense, start=start, minus=pairs)
        assert power_method_norm(sigma, start=start) == power_method_norm(dense, start=start)

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
