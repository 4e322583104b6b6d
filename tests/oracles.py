"""Independent reference computations used to check the library's fast paths.

Nothing here calls the code paths under test: least-squares solutions come
from explicitly inverted normal equations, the discrete Fourier transform
from its entry formula, the exact residual norm of a test matrix from a
dense SVD in its own coordinates, with the complete transform formed as a
dense matrix, and a real test matrix from scipy's QR of each Gaussian as
drawn.  Only the inputs that define a test matrix, its spectrum and its
seeded Gaussian draws, come from the library.
"""

import numpy as np
from scipy.linalg import qr

from lowrank_als.matrix import gaussian_matrix
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


# A test matrix is measured on the exact residual in its own coordinates;
# the dense A is the rounding of F Sigma G,
# ||A - F Sigma G||_2 <= about log2(m n) * eps * ||A|| (19 at 512x1024), and
# forming A - S T, W and the SVDs add a few eps * ||A|| more.  ||A|| = 1 for
# every test matrix, so this bounds the gap between the two in absolute terms.
ROUNDING_ALLOWANCE = 32 * np.finfo(float).eps


def complete_transform(spec) -> np.ndarray:
    """The unitary m-by-m F of a test matrix A = F Sigma_r G_r, as a dense matrix.

    For the DFT, dft_matrix(m).  For real_orthogonal, the complete Q of
    numpy's QR of the build's Gaussian, whose first r = min(m, n) columns are
    the build's F_r up to rounding.
    """
    if spec.transform == "dft":
        return dft_matrix(spec.m)
    return np.linalg.qr(gaussian_matrix(spec.m, min(spec.m, spec.n), spec.seed, "real"), mode="complete")[0]


def qr_built_real_test_matrix(spec) -> np.ndarray:
    """A real_orthogonal test matrix from scipy's economic QR of each
    C-ordered Gaussian, then F_r (Sigma G_r) with Sigma G_r a new array.
    build_test_matrix must give the same bits."""
    r = min(spec.m, spec.n)
    sig = sigma_spectrum(spec)
    f_r = qr(gaussian_matrix(spec.m, r, spec.seed, "real"), mode="economic")[0]
    g_r = qr(gaussian_matrix(spec.n, r, spec.seed + 1, "real"), mode="economic")[0].T
    return f_r @ (sig[:, None] * g_r)


def residual_norm(spec, s: np.ndarray) -> float:
    """sigma_max(Sigma_r - W W[:r]^H Sigma) with W = F^H S, by a dense SVD of the m-by-r matrix.

    For a test matrix A = F Sigma_r G_r (F = complete_transform(spec),
    Sigma_r the m-by-r diagonal [Sigma; 0], G_r with orthonormal rows), this
    is ||A - S S^H A||_2 exactly, up to the rounding of the SVD.  For a wide
    or square matrix (m = r) it is sigma_max(Sigma - W W^H Sigma).  W comes
    from a dense F, not from an FFT or Householder reflectors.
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
