"""Spectral-norm estimation by the power method on implicitly defined operators.

Operators are scipy.sparse.linalg.LinearOperator instances, so scipy's
iterative solvers such as svds accept the residual of a factorization too; a
dense array is accepted wherever an operator is.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, aslinearoperator
from scipy.sparse.linalg._interface import MatrixLinearOperator

from .matrix import adjoint, frobenius_norm, gaussian_matrix

# Start-vector seed for norm measurements, deliberately unrelated to any
# factorization seed; override per call when needed.
DEFAULT_POWER_SEED = 0x9E3779B9


def residual_operator(a: np.ndarray, s: np.ndarray, t: np.ndarray) -> LinearOperator:
    """The residual E = A - S T without materializing E or copying A."""
    a = np.asarray(a)
    s = np.asarray(s)
    t = np.asarray(t)
    sh, th = adjoint(s), adjoint(t)

    def matvec(v):
        return a @ v - s @ (t @ v)

    def rmatvec(w):
        # A* w = conj(A^T conj(w)): A^T is a view, so A is never conjugated.
        # w may be an (m,) vector or an (m, 1) column.
        return (a.T @ w.conj()).conj() - th @ (sh @ w)

    dtype = np.result_type(a.dtype, s.dtype, t.dtype)
    return LinearOperator(a.shape, matvec=matvec, rmatvec=rmatvec, dtype=dtype)


def _column_norms(x: np.ndarray) -> np.ndarray:
    # BLAS nrm2 per column: np.linalg.norm(axis=0) squares the entries.
    return np.array([frobenius_norm(x[:, i]) for i in range(x.shape[1])])


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    # A column annihilated by the operator stays exactly zero, so its final
    # estimate is 0 and the other columns are unaffected.
    norms = _column_norms(x)
    return x / np.where(norms > 0.0, norms, 1.0)


def power_method_norm(op, n_iters: int = 100, seed: int = DEFAULT_POWER_SEED, minus=()):
    """Estimate the spectral norm of ``op`` by power iteration on op* op.

    ``op`` is a LinearOperator or anything aslinearoperator accepts, such as a
    dense array.  Starts from a normalized Gaussian vector v and runs
    ``n_iters`` steps of u <- normalize(op v), v <- normalize(op* u), then
    returns ||op v|| for the final unit v.  Normalizing after each apply keeps
    every iterate a unit vector, so the estimate neither underflows nor
    overflows for any finite scale of the operator.  The estimate is a
    Rayleigh-quotient-type lower bound: it never exceeds the true norm beyond
    rounding.  Returns 0 if the operator annihilates an iterate.

    With ``minus=((s1, t1), (s2, t2), ...)`` it returns a list: the estimate
    of ||op - s_i t_i|| for each pair, in order.  All pairs share one block
    power iteration whose column i runs the steps above on op - s_i t_i from
    the same start vector, so each apply makes one pass over ``op`` for every
    pair.  Entry i equals power_method_norm(residual_operator(a, s_i, t_i))
    in exact arithmetic and differs from it only by rounding, because a
    matrix-matrix product sums in another order than a matrix-vector one.
    A dense ``op`` is applied as (V^T A^T)^T and (U* A)*, never as a
    conjugated copy.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    op = aslinearoperator(op)
    pairs = [(np.asarray(s), np.asarray(t)) for s, t in minus]
    adjoints = [(adjoint(s), adjoint(t)) for s, t in pairs]
    if isinstance(op, MatrixLinearOperator):
        # An array and aslinearoperator(array) take this same path.  Both
        # applies multiply a block of rows into A as stored: for few columns
        # V^T A^T ran faster than A V at one BLAS thread.
        a = op.A

        def forward(v):
            return (v.T @ a.T).T

        def backward(u):
            return (u.conj().T @ a).conj().T

    else:
        forward, backward = op.matmat, op.rmatmat

    def apply(v):
        y = forward(v)
        if not pairs:
            return y
        return y - np.column_stack([s @ (t @ v[:, i]) for i, (s, t) in enumerate(pairs)])

    def apply_adjoint(u):
        w = backward(u)
        if not pairs:
            return w
        return w - np.column_stack([th @ (sh @ u[:, i]) for i, (sh, th) in enumerate(adjoints)])

    dtype = np.result_type(op.dtype, *(x.dtype for pair in pairs for x in pair))
    field = "complex" if np.issubdtype(dtype, np.complexfloating) else "real"
    v = gaussian_matrix(op.shape[1], 1, seed, field)
    v = np.repeat(v / frobenius_norm(v), max(1, len(pairs)), axis=1)
    for _ in range(n_iters):
        v = _normalize_columns(apply_adjoint(_normalize_columns(apply(v))))
    estimates = [float(x) for x in _column_norms(apply(v))]
    return estimates if pairs else estimates[0]
