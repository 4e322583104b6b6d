import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from lowrank_als.matrix import (
    as_matrix,
    frobenius_norm,
    gaussian_matrix,
    orthonormal_basis,
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
