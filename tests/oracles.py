"""Independent reference computations used to check the library's fast paths.

Nothing here calls the code paths under test: least-squares solutions come
from explicitly inverted normal equations, the discrete Fourier transform
and the orthonormal discrete Hartley transform from their entry formulas, a
real test matrix as the dense product of its transforms, and the exact
residual norm of a test matrix from a dense SVD in its own coordinates, with
the complete transform formed as a dense matrix.  Only the input that defines a test matrix, its
spectrum, comes from the library.
"""

import numpy as np

from lowrank_als.testmat import sigma_spectrum


def normal_equations_solve(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(S* S)^{-1} S* A with the Gram matrix inverted explicitly (2x2 by formula)."""
    gram = s.conj().T @ s
    rhs = s.conj().T @ a
    if gram.shape == (2, 2):
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        inv = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    else:
        inv = np.linalg.inv(gram)
    return inv @ rhs


def normal_equations_solve_right(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A T* (T T*)^{-1}, the mirrored normal-equations formula."""
    gram = t @ t.conj().T
    return a @ t.conj().T @ np.linalg.inv(gram)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier transform: entry (p, q) = exp(-2 pi i p q / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = np.arange(n)
    return np.exp((-2j * np.pi / n) * np.outer(q, q)) / np.sqrt(n)


def dht_matrix(n: int) -> np.ndarray:
    """Orthonormal discrete Hartley transform: entry (i, q) = cas(2 pi i q / n) / sqrt(n)
    with cas = cos + sin.  The angle's integer part is reduced as (i q) mod n
    first, so every entry is within an ulp or so."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = np.arange(n)
    angle = (2 * np.pi / n) * (np.outer(q, q) % n)
    return (np.cos(angle) + np.sin(angle)) / np.sqrt(n)


# A test matrix is measured on the exact residual in its own coordinates;
# the dense A is the rounding of F Sigma G,
# ||A - F Sigma G||_2 <= about log2(m n) * eps * ||A|| (19 at 512x1024), and
# forming A - S T, W and the SVDs add a few eps * ||A|| more.  ||A|| = 1 for
# every test matrix, so this bounds the gap between the two in absolute terms.
ROUNDING_ALLOWANCE = 32 * np.finfo(float).eps


def complete_transform(spec) -> np.ndarray:
    """The unitary m-by-m F of a test matrix A = F Sigma_r G_r, as a dense matrix:
    dft_matrix(m) for the DFT, dht_matrix(m) for real_orthogonal."""
    if spec.transform == "dft":
        return dft_matrix(spec.m)
    return dht_matrix(spec.m)


def dense_real_test_matrix(spec) -> np.ndarray:
    """A real_orthogonal test matrix as the dense product H_m[:, :r] Sigma H_n[:r],
    with r = min(m, n) and H_p = dht_matrix(p)."""
    r = min(spec.m, spec.n)
    return dht_matrix(spec.m)[:, :r] @ (sigma_spectrum(spec)[:, None] * dht_matrix(spec.n)[:r])


def residual_norm(spec, s: np.ndarray) -> float:
    """sigma_max(Sigma_r - W W[:r]^H Sigma) with W = F^H S, by a dense SVD of the m-by-r matrix.

    For a test matrix A = F Sigma_r G_r (F = complete_transform(spec),
    Sigma_r the m-by-r diagonal [Sigma; 0], G_r with orthonormal rows), this
    is ||A - S S^H A||_2 exactly, up to the rounding of the SVD.  For a wide
    or square matrix (m = r) it is sigma_max(Sigma - W W^H Sigma).  W comes
    from a dense F, not from a fast transform.
    """
    sigma = sigma_spectrum(spec)
    m, r = s.shape[0], len(sigma)
    w = complete_transform(spec).conj().T @ s
    residual = np.eye(m, r) * sigma - w @ (w[:r].conj().T * sigma)
    return float(np.linalg.svd(residual, compute_uv=False)[0])


def subspace_iteration_error(sigma: np.ndarray, g: np.ndarray, j: int) -> float:
    """||A - S S^H A||_2 in exact arithmetic, up to the rounding of a small
    QR and SVD, for col(S) = col((A A^H)^j A Omega).

    A = U diag(sigma) V^H with U of orthonormal columns, V unitary and
    sigma_k > 0, where k is the column count of G = V^H Omega.  In U's
    coordinates col(S) = col(Sigma^p G), p = 2 j + 1, which is col([I; X])
    with X = Sigma_2^p G_2 G_1^{-1} Sigma_1^{-p} (1 = the leading k rows,
    2 = the rest): entries that stay representable where Sigma^p G underflows.
    """
    k, p = g.shape[1], 2 * j + 1
    x = (sigma[k:, None] ** p * g[k:]) @ np.linalg.inv(g[:k]) / sigma[None, :k] ** p
    q = np.linalg.qr(np.vstack([np.eye(k), x]))[0]
    residual = np.diag(sigma) - q @ (q.conj().T * sigma)
    return float(np.linalg.svd(residual, compute_uv=False)[0])
