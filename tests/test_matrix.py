import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from lowrank_als import matrix
from lowrank_als.matrix import (
    BLOCK_BYTES,
    as_matrix,
    frobenius_norm,
    gaussian_matrix,
    orthonormal_basis,
    times,
)


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1.0, np.inf]]))

    def test_dimension_mismatch_in_matmul(self):
        with pytest.raises(ValueError):
            np.zeros((2, 3)) @ np.zeros((2, 3))


class TestGaussian:
    def test_deterministic(self):
        a = gaussian_matrix(4, 3, seed=7)
        b = gaussian_matrix(4, 3, seed=7)
        assert np.array_equal(a, b)

    def test_mean_and_variance(self):
        x = gaussian_matrix(10000, 1, seed=1)
        assert abs(x.mean()) < 0.05
        assert abs(x.var() - 1.0) < 0.05

    def test_complex_unit_variance(self):
        x = gaussian_matrix(10000, 1, seed=2, field="complex")
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_2x2_full_rank(self, seed):
        assert np.linalg.matrix_rank(gaussian_matrix(2, 2, seed)) == 2

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, seed=0)

    def test_rejects_bad_field(self):
        with pytest.raises(ValueError):
            gaussian_matrix(2, 2, seed=0, field="quaternion")


class TestNormsAndAdjoint:
    def test_identity_norm(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_frobenius_matches_singular_values(self, field):
        m = gaussian_matrix(5, 4, seed=2, field=field)
        via_svd = np.sqrt(np.sum(svdvals(m) ** 2))
        assert abs(frobenius_norm(m) - via_svd) <= 1e-10

    def test_large_matrix_agrees_with_fsum(self):
        x = gaussian_matrix(300, 300, seed=3)
        exact = math.sqrt(math.fsum(float(v) ** 2 for v in x.ravel()))
        assert abs(frobenius_norm(x) - exact) <= 1e-13 * exact

    @settings(deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_equivariant(self, rows, cols, field, exponent, seed):
        # Squaring entries of size 1e-300 underflows and of size 1e300
        # overflows; the norm itself is representable at every such scale.
        a = gaussian_matrix(rows, cols, seed, field)
        c = 10.0**exponent
        want = frobenius_norm(a)
        assert abs(frobenius_norm(c * a) / c - want) <= 1e-13 * want


class TestNormEdges:
    """frobenius_norm's retry, pinned where the hypothesis test only samples."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("exponent", [300, 160, -160, -300])
    def test_scales(self, field, exponent):
        # At 1e160 and above the squares overflow, at 1e-160 and below they
        # underflow; the exact norm is c times the fsum-based norm of a.
        a = gaussian_matrix(7, 5, seed=70, field=field)
        c = 10.0**exponent
        exact = c * math.sqrt(math.fsum(float(v) ** 2 for v in a.view(np.float64).ravel()))
        assert abs(frobenius_norm(c * a) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_all_subnormal(self, dtype):
        tiny = 2.0**-1074  # the smallest subnormal; its square is 0
        assert frobenius_norm(np.full(4, tiny, dtype)) == 2 * tiny
        assert frobenius_norm(np.array([3 * tiny, 4 * tiny], dtype)) == 5 * tiny

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_and_single_entries(self, dtype):
        assert frobenius_norm(np.zeros((3, 2), dtype)) == 0.0
        for value in (-3.0, 1e300, -1e-300, 2.0**-1070):
            assert frobenius_norm(np.array([value], dtype)) == abs(value)

    def test_huge_beside_tiny(self):
        assert frobenius_norm([1e200, 1e-200, -1e-200]) == 1e200
        assert frobenius_norm([3e200, 1e-200, 4e200]) == pytest.approx(5e200, rel=1e-15)
        assert frobenius_norm([3e-200, 4e-200, 1e-300]) == pytest.approx(5e-200, rel=1e-15)

    def test_underflowed_squares_beside_a_normal_one(self):
        # 2**-510 squares to 2**-1020, a normal number, but the other squares
        # are subnormal and each rounds to 1 or 2 units of 2**-1074 instead
        # of its 1.5; their 1e5 errors move the norm by about 1.4e-12.  A
        # sum below 2**-960 is retried from rescaled entries, whose squares
        # are normal.  The large entry comes last, so no partial sum of the
        # dot holds it while the small squares are added.
        x = np.full(100_001, math.sqrt(1.5) * 2.0**-537)
        x[-1] = 2.0**-510
        scaled = x * 2.0**510
        exact = 2.0**-510 * math.sqrt(math.fsum(scaled * scaled))
        assert abs(frobenius_norm(x) - exact) <= 1e-13 * exact

    def test_non_finite(self):
        assert frobenius_norm([1.0, np.inf]) == np.inf
        assert np.isnan(frobenius_norm([np.nan, 1e300, 1.0]))


class TestRankHelpers:
    def test_orthonormal_basis_keeps_every_column(self):
        # rank(m) < 3 loses no column: all three come back orthonormal, and
        # their span contains col(m).  Trimming to the rank is
        # verify.projector's.
        for m in (np.ones((5, 3)), (1 + 1j) * np.ones((5, 3)), np.zeros((5, 3))):
            q = orthonormal_basis(m)
            assert q.shape == (5, 3)
            assert frobenius_norm(q.conj().T @ q - np.eye(3)) <= 1e-12
            assert frobenius_norm(m - q @ (q.conj().T @ m)) <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_orthonormal_basis_rejects_non_finite(self, field, bad):
        # numpy's QR would return a basis of NaNs; the check makes a NaN in A
        # fail at the sketch.
        m = gaussian_matrix(5, 3, seed=71, field=field)
        m[2, 1] = bad
        with pytest.raises(ValueError, match="^the matrix to orthonormalize contains non-finite entries$"):
            orthonormal_basis(m)


def _integer_matrix(rows, cols, seed, field):
    """Entries 1, 2 or 3 (plus i, 2i or 3i when complex): every product and
    sum that times forms is an integer below 2**53, so exact in any order,
    and every entry of A V has a nonzero real or imaginary part."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 4, (rows, cols)).astype(np.float64)
    return x + 1j * rng.integers(1, 4, (rows, cols)) if field == "complex" else x


def _block_rows(monkeypatch):
    """The rows of A in each BLAS call that matrix.times makes."""
    rows = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(x, y, out):
            rows.append(y.shape[1])
            return np.matmul(x, y, out=out)

    monkeypatch.setattr(matrix, "np", CountingNumpy())
    return rows


ITEMSIZE = {"real": 8, "complex": 16}


class TestBlockedProduct:
    """times walks A by row blocks of BLOCK_BYTES while V is at most a
    quarter of BLOCK_BYTES, and takes A whole otherwise; its result equals
    a @ v bit for bit on exact inputs, column-major, in A's dtype."""

    def _check(self, monkeypatch, m, n, k, field, order, want_rows):
        a = _integer_matrix(m, n, 1, field)
        v = np.asarray(_integer_matrix(n, k, 2, field), order=order)
        rows = _block_rows(monkeypatch)
        got = times(a, v)
        assert rows == want_rows
        assert got.shape == (m, k) and got.dtype == a.dtype and got.flags.f_contiguous
        assert np.array_equal(got, a @ v)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("extra", [0, 3], ids=["even", "ragged"])
    def test_several_blocks(self, monkeypatch, field, order, extra):
        r = BLOCK_BYTES // (64 * ITEMSIZE[field])  # rows of 64 entries to a block
        self._check(monkeypatch, 2 * r + extra, 64, 2, field, order, [r, r] + [extra] * (extra > 0))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_below_one_block(self, monkeypatch, field, order):
        m = BLOCK_BYTES // (64 * ITEMSIZE[field]) - 1
        self._check(monkeypatch, m, 64, 2, field, order, [m])

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("surplus, whole", [(0, False), (1, True)], ids=["quarter", "wider"])
    def test_wide_v_takes_a_whole(self, monkeypatch, field, surplus, whole):
        # A V with V of exactly a quarter of BLOCK_BYTES is still walked by blocks;
        # one column more takes A in one call.
        r = BLOCK_BYTES // (64 * ITEMSIZE[field])
        k = r // 4 + surplus
        self._check(monkeypatch, 2 * r + 3, 64, k, field, "F", [2 * r + 3] if whole else [r, r, 3])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_row_longer_than_budget(self, monkeypatch, field):
        # Then V is wider than the budget too, and A is taken whole.
        n = BLOCK_BYTES // ITEMSIZE[field] + 1
        self._check(monkeypatch, 3, n, 1, field, "F", [3])

    def test_empty_v(self, monkeypatch):
        # No columns, and rows longer than the budget: one-row blocks.
        n = BLOCK_BYTES // 8 + 1
        self._check(monkeypatch, 3, n, 0, "real", "F", [1, 1, 1])
