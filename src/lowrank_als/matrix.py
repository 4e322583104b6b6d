"""Dense matrix kernels: validation, the product A V, norm, sampling, small
SVD, column bases.

as_matrix validates a matrix once, where it enters the package: als_run,
approximation_error, factorization_to_svd, small_svd and the io readers and
writers call it.  times and orthonormal_basis take arrays as given, as the
ALS iteration hands them over.  All routines operate on plain numpy arrays
(row-major, float64 or complex128) and add only what numpy/scipy lack;
callers use numpy/scipy directly for the rest (QR, rank, least squares, the
adjoint ``x.conj().T`` and the product U* A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Largest entry count accepted by small_svd (dense decompositions only).
DENSE_SVD_BUDGET = 4096**2

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-d float64/complex128 array and return it C-ordered."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {a.shape}")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = np.ascontiguousarray(a, dtype=dtype)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product A V of a row-major A with a block V of few columns.

    Computed as (V^T A^T)^T, which multiplies a block of rows into A as
    stored: for few columns it ran faster than A @ V at one BLAS thread
    (19 ms against 25 ms at 2048x4096 with two complex columns).  The result
    is column-major, the layout a QR of its column blocks takes.
    """
    return (v.T @ a.T).T


def frobenius_norm(a) -> float:
    """Frobenius norm (Euclidean norm for vectors), right at every scale
    where the norm itself is representable.

    BLAS nrm2 on the flattened entries avoids the underflow and overflow of
    squaring them.  scipy.linalg.norm sends 2-d input to numpy's norm, which
    squares unscaled, hence the reshape.
    """
    return float(scipy.linalg.norm(np.asarray(a).reshape(-1), check_finite=False))


def gaussian_matrix(rows: int, cols: int, seed: int, field: str = "real") -> np.ndarray:
    """Seeded i.i.d. standard-normal matrix.

    Uses numpy's PCG64 generator with the ziggurat normal transform; identical
    (rows, cols, seed, field) arguments reproduce the output bit for bit.  For
    ``field="complex"`` the real and imaginary parts are each N(0, 1/2) so each
    complex entry has unit variance.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    if field == "real":
        return rng.standard_normal((rows, cols))
    if field == "complex":
        z = rng.standard_normal((rows, cols, 2))
        return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


@dataclass(frozen=True)
class SvdTriplet:
    """Singular value decomposition: u, v with orthonormal columns and sigma
    nonnegative in descending order; the decomposed matrix is u @ diag(sigma) @ v*."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def small_svd(a) -> SvdTriplet:
    """Dense SVD with min(p, q) triplets; refuses inputs of more than DENSE_SVD_BUDGET entries."""
    a = as_matrix(a)
    if a.size > DENSE_SVD_BUDGET:
        raise ValueError(f"matrix with {a.size} entries exceeds dense SVD budget {DENSE_SVD_BUDGET}")
    u, sig, vh = np.linalg.svd(a, full_matrices=False)
    return SvdTriplet(u, sig, vh.conj().T)


def orthonormal_basis(a) -> np.ndarray:
    """Orthonormal basis of col(a) from rank-revealing (column-pivoted) QR.

    ``a`` is a 2-d float64/complex128 array with positive dimensions; scipy
    raises ValueError for non-finite entries.  Returns an m-by-r matrix where
    r is the estimated rank; the zero matrix yields an m-by-0 result.
    """
    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    # Diagonal entries of r below max(m, n) * eps * max|r_ii| count as zero.
    diag = np.abs(np.diagonal(r))
    rank = int(np.count_nonzero(diag > max(a.shape) * _EPS * diag.max()))
    return q[:, :rank]
