"""Spectral-norm estimation by the power method on implicitly defined operators.

Operators are scipy.sparse.linalg.LinearOperator instances; a dense array is
accepted wherever an operator is.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs
from scipy.sparse.linalg import aslinearoperator
from scipy.sparse.linalg._interface import MatrixLinearOperator

from .matrix import frobenius_norm, gaussian_matrix, times

# Start-vector seed for norm measurements, deliberately unrelated to any
# factorization seed; pass another start vector per call when needed.
DEFAULT_POWER_SEED = 0x9E3779B9


def _column_norms(x: np.ndarray) -> np.ndarray:
    # BLAS nrm2 per column, the routine frobenius_norm calls, looked up once
    # and given contiguous columns: np.linalg.norm(axis=0) squares the entries.
    nrm2 = get_blas_funcs("nrm2", dtype=x.dtype, ilp64="preferred")
    return np.array([nrm2(column) for column in np.ascontiguousarray(x.T)])


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    # A column annihilated by the operator stays exactly zero, so its final
    # estimate is 0 and the other columns are unaffected.
    norms = _column_norms(x)
    return x / np.where(norms > 0.0, norms, 1.0)


def power_method_norm(op, n_iters: int = 100, start=None, minus=()):
    """Estimate the spectral norm of ``op`` by power iteration on op* op.

    ``op`` is a LinearOperator or anything aslinearoperator accepts, such as a
    dense array.  Starts from v = ``start`` normalized, an n-vector or n-by-1
    array that is finite and nonzero (``ValueError`` otherwise); the default
    is gaussian_matrix(n, 1, DEFAULT_POWER_SEED, field) in the field of the
    operator and the pairs.  Runs ``n_iters`` steps of u <- normalize(op v),
    v <- normalize(op* u), then returns ||op v|| for the final unit v.
    Normalizing after each apply keeps every iterate a unit vector, so the
    estimate neither underflows nor overflows for any finite scale of the
    operator.  The estimate is a Rayleigh-quotient-type lower bound: it never
    exceeds the true norm beyond rounding.  Returns 0 if the operator
    annihilates an iterate.

    With ``minus=((s1, t1), (s2, t2), ...)`` it returns a list: the estimate
    of ||op - s_i t_i|| for each pair, in order.  All pairs share one block
    power iteration whose column i runs the steps above on op - s_i t_i from
    the same start vector, so each apply makes one pass over ``op`` for every
    pair.  Entry i equals the estimate of a standalone call on the operator
    op - s_i t_i in exact arithmetic and differs from it only by rounding,
    because a matrix-matrix product sums in another order than a
    matrix-vector one.
    A dense ``op`` is applied as matrix.times(A, V) and (U* A)*, never as a
    conjugated copy.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    op = aslinearoperator(op)
    m, n = op.shape
    pairs = [(np.asarray(s), np.asarray(t)) for s, t in minus]
    for s, t in pairs:
        if s.ndim != 2 or t.ndim != 2 or s.shape[0] != m or t.shape != (s.shape[1], n):
            raise ValueError(f"pair shapes {s.shape} and {t.shape} do not fit a {m}x{n} operator")
    if isinstance(op, MatrixLinearOperator):
        # An array and aslinearoperator(array) take this same path.  Both
        # applies multiply a block of rows into A as stored.
        a = op.A

        def forward(v):
            return times(a, v)

        def backward(u):
            return (u.conj().T @ a).conj().T

    else:
        forward, backward = op.matmat, op.rmatmat

    dtype = np.result_type(op.dtype, *(x.dtype for pair in pairs for x in pair))
    if pairs:
        # The pairs stacked for one batched matmul per apply, zero-padded to
        # the widest k: a narrower pair (rank-deficient ALS output) subtracts
        # exact zeros.
        c = len(pairs)
        kmax = max(s.shape[1] for s, _ in pairs)
        s_stack = np.zeros((c, m, kmax), dtype)
        t_stack = np.zeros((c, kmax, n), dtype)
        for i, (s, t) in enumerate(pairs):
            s_stack[i, :, : s.shape[1]] = s
            t_stack[i, : t.shape[0]] = t

        def apply(v):
            return forward(v) - (s_stack @ (t_stack @ v.T[:, :, None]))[:, :, 0].T

        def apply_adjoint(u):
            # (u^H S) T = (T^H S^H u)^H, so no conjugated copy of a stack is kept.
            return backward(u) - ((u.conj().T[:, None, :] @ s_stack) @ t_stack)[:, 0, :].conj().T

    else:
        c, apply, apply_adjoint = 1, forward, backward

    if start is None:
        field = "complex" if np.issubdtype(dtype, np.complexfloating) else "real"
        v = gaussian_matrix(n, 1, DEFAULT_POWER_SEED, field)
    else:
        v = np.asarray(start)
        if v.shape not in ((n,), (n, 1)):
            raise ValueError(f"start of shape {v.shape} does not fit a {m}x{n} operator")
        v = v.reshape(n, 1)
        if not np.all(np.isfinite(v)):
            raise ValueError("start contains non-finite entries")
        if not np.any(v):
            raise ValueError("start is zero")
    v = np.repeat(v / frobenius_norm(v), c, axis=1)
    for _ in range(n_iters):
        v = _normalize_columns(apply_adjoint(_normalize_columns(apply(v))))
    estimates = [float(x) for x in _column_norms(apply(v))]
    return estimates if pairs else estimates[0]
