"""Spectral-norm estimation by the power method.

An operator is a 2-d numpy array (not a masked one), applied by row blocks as
stored, or a ColumnDiagonal, applied by elementwise row products; anything
else raises TypeError.  Each iterate row is divided by its norm through the
real view in either field; the norms are matrix.frobenius_norm's or
matrix.row_norms'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import frobenius_norm, gaussian_matrix, row_norms

# Start-vector seed for norm measurements, deliberately unrelated to any
# factorization seed; pass another start vector per call when needed.
DEFAULT_POWER_SEED = 0x9E3779B9


@dataclass(frozen=True)
class ColumnDiagonal:
    """The m-by-r matrix [diag(d); 0] of a 1-d real ``d`` of length r <= m,
    held as ``d`` alone: the Sigma_r that testmat.residual_coordinates
    measures.  ``shape`` and ``dtype`` are those of the matrix."""

    d: np.ndarray
    m: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, len(self.d))

    @property
    def dtype(self) -> np.dtype:
        return self.d.dtype


def power_method_norm(op, n_iters: int = 100, start=None, minus=()):
    """Estimate the spectral norm of ``op`` by power iteration on op* op.

    Starts from v = ``start`` normalized, an n-vector or n-by-1 array that
    is finite and nonzero (``ValueError`` otherwise), taken in float64 or
    complex128; the default is gaussian_matrix(n, 1, DEFAULT_POWER_SEED,
    field) in the field of the operator and the pairs.  Runs ``n_iters``
    steps of u <- normalize(op v), v <- normalize(op* u), then returns
    ||op v|| for the final unit v.  normalize divides each entry of the
    real view of a row by the row's norm, one rounding per entry in either
    field.  Normalizing after each apply keeps every iterate a unit vector,
    so the estimate neither underflows nor overflows for any finite scale of
    the operator.  The estimate is a Rayleigh-quotient-type lower bound: it never
    exceeds the true norm beyond rounding.  Returns 0 if the operator
    annihilates an iterate.

    With ``minus=((s1, t1), (s2, t2), ...)`` it returns a list: the estimate
    of ||op - s_i t_i|| for each pair, in order.  Every s_i is m-by-k and
    every t_i k-by-n, with one k for all pairs (``ValueError`` otherwise).
    All pairs share one block power iteration whose row i runs the steps
    above on op - s_i t_i from the same start vector, so each apply makes
    one pass over ``op`` for every pair.  Entry i equals the estimate of a
    standalone call on op - s_i t_i in exact arithmetic and differs from it
    only by rounding: a matrix-matrix product sums in another order than a
    matrix-vector one.  A plain or one-pair estimate for 2^p op (and 2^p s)
    is 2^p times that for op, bit for bit, as frobenius_norm is; with more
    pairs, only while each row's batched sum stays in range (row_norms).

    ``op`` is a ColumnDiagonal or a 2-d numpy array other than a masked
    array, taken in float64 or complex128 on entry; anything else raises
    ``TypeError``.  The iterates are the rows of one C-ordered block.  A 2-d
    array A is applied as V A^T and (U* A)*, which multiply the block into A
    as stored.  A ColumnDiagonal [diag(d); 0] is applied as [V d, 0] and
    U[:, :r] d, elementwise products with no transposes.  A non-finite
    entry of the operator or of a pair makes the estimate non-finite, and
    any non-finite estimate raises ``ValueError``.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if isinstance(op, ColumnDiagonal):
        d, r = op.d, len(op.d)

        def forward(v):
            x = np.zeros((len(v), op.m), v.dtype)
            np.multiply(v, d, out=x[:, :r])
            return x

        def backward(u):
            return u[:, :r] * d

    elif isinstance(op, np.ndarray) and op.ndim == 2 and not isinstance(op, np.ma.MaskedArray):
        # In float64 or complex128 once, as a mixed-type product would copy A^T at every apply.
        op = np.asanyarray(op, np.result_type(op, np.float64))

        def forward(v):
            return v @ op.T

        def backward(u):
            return (u.conj() @ op).conj()

    else:
        raise TypeError(f"operator must be a 2-d numpy array or a ColumnDiagonal, not {type(op).__name__}")

    m, n = op.shape
    pairs = [(np.asarray(s), np.asarray(t)) for s, t in minus]
    for s, t in pairs:
        # Each pair is m-by-k and k-by-n, with the first pair's k.
        if s.ndim != 2 or s.shape != (m, pairs[0][0].shape[1]) or t.shape != (s.shape[1], n):
            raise ValueError(f"pair shapes {s.shape} and {t.shape} do not fit a {m}x{n} operator")

    dtype = np.result_type(op.dtype, *(x.dtype for pair in pairs for x in pair))
    if pairs:
        # The pairs stacked for one batched matmul per apply, C-ordered as
        # np.array makes them whatever the pairs' layout: np.stack would keep
        # the F layout of ALS blocks and send the matmul down another path,
        # which moves the estimates by rounding.
        c = len(pairs)
        s_stack = np.array([s for s, _ in pairs], dtype)
        t_stack = np.array([t for _, t in pairs], dtype)

        def apply(v):
            return forward(v) - (s_stack @ (t_stack @ v[:, :, None]))[:, :, 0]

        def apply_adjoint(u):
            # (u^H S) T = (T^H S^H u)^H, so no conjugated copy of a stack is kept.
            return backward(u) - ((u.conj()[:, None, :] @ s_stack) @ t_stack)[:, 0, :].conj()

    else:
        c, apply, apply_adjoint = 1, forward, backward

    if start is None:
        field = "complex" if np.issubdtype(dtype, np.complexfloating) else "real"
        v = gaussian_matrix(n, 1, DEFAULT_POWER_SEED, field)
    else:
        v = np.asarray(start)
        if v.shape not in ((n,), (n, 1)):
            raise ValueError(f"start of shape {v.shape} does not fit a {m}x{n} operator")
        if not np.all(np.isfinite(v)):
            raise ValueError("start contains non-finite entries")
        if not np.any(v):
            raise ValueError("start is zero")
    # In float64 or complex128 and C-ordered, so that its real view holds floats.
    v = np.ascontiguousarray(v.reshape(1, n), np.result_type(v, np.float64))

    def normalize(x):
        # Every row is divided by its norm through the real view: one
        # rounding per entry in either field, where numpy's complex division
        # by a real d, taken as d + 0j, is slower and overflows for a
        # subnormal d.  A row the operator annihilates stays exactly zero
        # (its norm taken as 1), so its final estimate is 0 and the other
        # rows are unaffected.  A one-row block is divided by a scalar norm.
        if len(x) == 1:
            norms = frobenius_norm(x) or 1.0
        else:
            norms = row_norms(x)[:, None]
            norms[norms == 0.0] = 1.0
        return (x.view(x.real.dtype) / norms).view(x.dtype)

    v = np.repeat(normalize(v), c, axis=0)

    for _ in range(n_iters):
        v = normalize(apply_adjoint(normalize(apply(v))))
    estimates = [frobenius_norm(row) for row in apply(v)]
    if not np.all(np.isfinite(estimates)):
        raise ValueError(f"non-finite estimates {estimates}: the operator or a pair is not finite")
    return estimates if pairs else estimates[0]
