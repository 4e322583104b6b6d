"""Spectral-norm estimation by the power method on implicitly defined operators.

Operators are scipy.sparse.linalg.LinearOperator instances, so scipy's
iterative solvers such as svds accept the residual of a factorization too; a
dense array is accepted wherever an operator is.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from .matrix import adjoint, frobenius_norm, gaussian_matrix

# Start-vector seed for norm measurements, deliberately unrelated to any
# factorization seed; override per call when needed.
DEFAULT_POWER_SEED = 0x9E3779B9


def residual_operator(a: np.ndarray, s: np.ndarray, t: np.ndarray) -> LinearOperator:
    """The residual E = A - S T without materializing E."""
    a = np.asarray(a)
    s = np.asarray(s)
    t = np.asarray(t)
    ah, sh, th = adjoint(a), adjoint(s), adjoint(t)

    def matvec(v):
        return a @ v - s @ (t @ v)

    def rmatvec(w):
        return ah @ w - th @ (sh @ w)

    dtype = np.result_type(a.dtype, s.dtype, t.dtype)
    return LinearOperator(a.shape, matvec=matvec, rmatvec=rmatvec, dtype=dtype)


def power_method_norm(op, n_iters: int = 100, seed: int = DEFAULT_POWER_SEED) -> float:
    """Estimate the spectral norm of ``op`` by power iteration on op* op.

    ``op`` is a LinearOperator or anything aslinearoperator accepts, such as a
    dense array.  Starts from a normalized Gaussian vector v and runs
    ``n_iters`` steps of u <- normalize(op v), v <- normalize(op* u), then
    returns ||op v|| for the final unit v.  Normalizing after each apply keeps
    every iterate a unit vector, so the estimate neither underflows nor
    overflows for any finite scale of the operator.  The estimate is a
    Rayleigh-quotient-type lower bound: it never exceeds the true norm beyond
    rounding.  Returns 0 if the operator annihilates an iterate.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    op = aslinearoperator(op)
    n = op.shape[1]
    field = "complex" if np.issubdtype(op.dtype, np.complexfloating) else "real"
    v = gaussian_matrix(n, 1, seed, field)[:, 0]
    v = v / frobenius_norm(v)
    for _ in range(n_iters):
        u = op.matvec(v)
        nu = frobenius_norm(u)
        if nu == 0.0:
            return 0.0
        w = op.rmatvec(u / nu)
        nw = frobenius_norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return frobenius_norm(op.matvec(v))
