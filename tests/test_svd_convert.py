import numpy as np
import pytest

from lowrank_als import matrix
from lowrank_als.matrix import frobenius_norm, gaussian_matrix, small_svd
from lowrank_als.spectral import power_method_norm
from lowrank_als.svd_convert import factorization_to_svd


def test_rank_one():
    s = np.zeros((5, 1))
    s[0, 0] = 2.0
    t = np.zeros((1, 4))
    t[0, 0] = 3.0
    res = factorization_to_svd(s, t)
    assert abs(res.sigma[0] - 6.0) <= 1e-14
    assert np.allclose(np.abs(res.u[:, 0]), [1, 0, 0, 0, 0])
    assert np.allclose(np.abs(res.v[:, 0]), [1, 0, 0, 0])


def test_orthonormal_s_diagonal_t():
    q = np.linalg.qr(gaussian_matrix(7, 3, seed=1))[0]
    d = np.array([4.0, 2.0, 1.0])
    t = np.concatenate([np.diag(d), np.zeros((3, 2))], axis=1)
    res = factorization_to_svd(q, t)
    assert np.allclose(res.sigma, d, atol=1e-13)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_matches_direct_svd_of_product(field):
    s = gaussian_matrix(7, 3, seed=21, field=field)
    t = gaussian_matrix(3, 5, seed=22, field=field)
    res = factorization_to_svd(s, t)
    direct = small_svd(s @ t).sigma[:3]
    assert np.allclose(res.sigma, direct, atol=1e-10 * direct[0])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_orthonormality_and_reconstruction(field):
    s = gaussian_matrix(8, 3, seed=23, field=field)
    t = gaussian_matrix(3, 6, seed=24, field=field)
    res = factorization_to_svd(s, t)
    assert frobenius_norm(res.u.conj().T @ res.u - np.eye(3)) <= 1e-11
    assert frobenius_norm(res.v.conj().T @ res.v - np.eye(3)) <= 1e-11
    product = s @ t
    recon = res.u @ np.diag(res.sigma) @ res.v.conj().T
    assert frobenius_norm(recon - product) <= 1e-11 * frobenius_norm(product)


def test_norm_preserved_cross_checked_with_power_method():
    s = gaussian_matrix(9, 2, seed=25)
    t = gaussian_matrix(2, 7, seed=26)
    res = factorization_to_svd(s, t)
    via_power = power_method_norm(s @ t, n_iters=100, start=gaussian_matrix(7, 1, 0))
    assert abs(res.sigma[0] - via_power) <= 1e-10 * res.sigma[0]


def test_rank_deficient_s_gives_trailing_zeros():
    s = np.ones((6, 2))
    t = gaussian_matrix(2, 5, seed=27)
    res = factorization_to_svd(s, t)
    assert res.sigma[1] <= 1e-12 * max(res.sigma[0], 1.0)


def test_phase_canonicalization():
    s = gaussian_matrix(6, 2, seed=28, field="complex")
    t = gaussian_matrix(2, 5, seed=29, field="complex")
    res = factorization_to_svd(s, t)
    for col in range(res.u.shape[1]):
        pivot = res.u[np.argmax(np.abs(res.u[:, col])), col]
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)
        assert pivot.real > 0


def test_incompatible_shapes():
    with pytest.raises(ValueError):
        factorization_to_svd(np.ones((4, 2)), np.ones((3, 5)))


def test_product_over_dense_svd_budget(monkeypatch):
    # The k-by-n product R T is thin; the dense budget of small_svd is for
    # m-by-n decompositions and must not refuse it.
    monkeypatch.setattr(matrix, "DENSE_SVD_BUDGET", 100)
    s = gaussian_matrix(20, 2, seed=30)
    t = gaussian_matrix(2, 60, seed=31)
    res = factorization_to_svd(s, t)
    direct = np.linalg.svd(s @ t, compute_uv=False)[:2]
    assert np.allclose(res.sigma, direct, atol=1e-12 * direct[0])
