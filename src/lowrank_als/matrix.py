"""Dense matrix kernels: validation, the product A V, norm, sampling,
orthonormal bases, and the SvdTriplet that factorization_to_svd returns.

as_matrix validates a matrix once, where it enters the package: als_run,
approximation_error, factorization_to_svd and the io readers and writers
call it.  times and orthonormal_basis take arrays as given, as the
ALS iteration hands them over; orthonormal_basis estimates no rank.  All
routines operate on plain numpy arrays (row-major, float64 or complex128)
and add only what numpy lacks; callers use numpy directly for the rest
(QR, rank, least squares, singular values, the adjoint ``x.conj().T`` and
the product U* A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A sum of n squares at or above this is right to rounding: the squares
# that underflowed, each off by at most 2**-1075, move it by under n * 2**-115.
_SQUARES_MIN = 2.0**-960

# Bytes of one row block of A in the package's walks over A (times and the
# tracked residual).  Rule: a block and BLAS's packed copy of it fit together
# in a 1 MiB per-core L2 cache.
BLOCK_BYTES = 512 * 1024


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
    stored, into one k-by-m array whose transpose is returned: column-major,
    the layout a QR of its column blocks takes.  BLAS packs the operand it
    streams, and a packed copy of all of A goes through memory; so while V
    is at most a quarter of BLOCK_BYTES, A is taken by contiguous row blocks
    of at most BLOCK_BYTES (at least one row), one BLAS call each, whose
    packed copies stay in cache.  Each call packs V again, so the walk reads
    V's bytes once per block, at most a quarter of A's in all; a wider V
    takes A whole.  Every entry sums over all n columns in one call either
    way.  At 2048x4096 on one BLAS thread, two complex columns took 4-5 ms
    less by blocks than as one call (13-20 ms against 17-25 ms, interleaved
    runs), and ten took 2-5 ms more (30-35 ms against 25-33 ms).
    """
    m, n = a.shape
    rows = max(1, BLOCK_BYTES // (n * a.itemsize)) if 4 * v.nbytes <= BLOCK_BYTES else m
    out = np.empty((v.shape[1], m), np.result_type(a, v))
    for start in range(0, m, rows):
        np.matmul(v.T, a[start : start + rows].T, out=out[:, start : start + rows])
    return out.T


def frobenius_norm(a) -> float:
    """Frobenius norm (Euclidean norm for vectors), right at every scale
    where the norm itself is representable.

    The square root of one BLAS dot of the entries with themselves, or, if
    that is nan, inf or below _SQUARES_MIN, of the magnitudes divided by the
    largest: a real division, as numpy's complex one by a subnormal overflows.
    """
    total = np.vdot(a, a).real
    if _SQUARES_MIN <= total < math.inf:
        return math.sqrt(total)
    x = np.abs(np.asarray(a)).reshape(-1)
    scale = x.max(initial=0.0)  # 0 for zero entries, nan or inf for non-finite ones
    return float(scale * np.sqrt(np.dot(x / scale, x / scale)) if 0.0 < scale < math.inf else scale)


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


def orthonormal_basis(a) -> np.ndarray:
    """The Q of an economic QR of ``a``, with no rank cutoff: min(m, c)
    orthonormal columns for an m-by-c ``a``, whose span contains col(a).

    ``a`` is a 2-d float64/complex128 array with positive dimensions; a
    non-finite entry raises ValueError.  Householder QR gives orthonormal
    columns for any input, so a column of ``a`` that carries only rounding
    still yields a basis column, orthogonal to the rest.  In ALS such a
    column cannot hurt: it can only enlarge col(S), and T = S* A is optimal
    for any orthonormal S, so ||A - S S* A|| cannot rise.  Dropping it
    could: a column lost once stays lost for the whole run.
    """
    if not np.isfinite(a).all():
        raise ValueError("the matrix to orthonormalize contains non-finite entries")
    return np.linalg.qr(a)[0]
