"""Synthetic benchmark matrices with a prescribed singular spectrum.

A = F Sigma G where F and G are unitary (discrete Fourier transforms by
default, seeded real orthogonal matrices as a real-arithmetic alternative) and
Sigma is rectangular diagonal.  The spectrum has a geometric "head" decaying
from 1 down to delta over the first k values (two values per exponent step)
and a linear "tail" decaying from delta down to 0, so the best achievable
rank-k spectral error is exactly delta and the spectral norm of A is 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, qr
from scipy.sparse.linalg import LinearOperator

from .matrix import gaussian_matrix
from .spectral import DEFAULT_POWER_SEED

# Cap on the working set of build_test_matrix, in bytes.
MEMORY_BUDGET = 4 << 30


class MemoryBudgetError(ValueError):
    def __init__(self, required: int, budget: int):
        self.required_bytes = required
        self.budget_bytes = budget
        super().__init__(
            f"test matrix needs ~{required} bytes, over the budget of {budget} bytes"
        )


@dataclass(frozen=True)
class TestMatrixSpec:
    __test__ = False  # not a pytest class, despite the name

    m: int
    n: int
    k: int
    delta: float
    transform: str = "dft"
    seed: int = 0  # used only by the real_orthogonal transform

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError(f"k must be even and >= 2, got {self.k}")
        # The tail formula divides by min(m, n) - k - 1.
        if self.k >= min(self.m, self.n) - 1:
            raise ValueError(f"k={self.k} must be < min(m, n) - 1 = {min(self.m, self.n) - 1}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.transform not in ("dft", "real_orthogonal"):
            raise ValueError(f"unknown transform {self.transform!r}")


def sigma_spectrum(spec: TestMatrixSpec) -> np.ndarray:
    """The min(m, n) prescribed singular values, 1-based index convention.

    Head (i = 1..k): delta ** (floor(i/2) / (k/2)), so sigma_1 = 1 and
    sigma_k = delta.  Tail (i = k+1..min(m, n)):
    delta * (min(m, n) - i) / (min(m, n) - k - 1), so sigma_{k+1} = delta and
    the last value is 0.
    """
    r = min(spec.m, spec.n)
    i = np.arange(1, r + 1)
    head = spec.delta ** ((i[: spec.k] // 2) / (spec.k / 2))
    tail = spec.delta * (r - i[spec.k :]) / (r - spec.k - 1)
    return np.concatenate([head, tail])


def orthonormal_columns(n: int, r: int, seed: int) -> np.ndarray:
    """n-by-r orthonormal columns (r <= n): the Q of a QR of a seeded real Gaussian."""
    return np.linalg.qr(gaussian_matrix(n, r, seed, "real"))[0]


def build_test_matrix(spec: TestMatrixSpec) -> np.ndarray:
    """Materialize A = F Sigma G.

    Only the first min(m, n) columns of F and rows of G contribute.  For the
    DFT, entry (p, c) is sum_q sigma_q exp(-2 pi i q (p/m + c/n)) / sqrt(m n),
    which depends only on (p L/m + c L/n) mod L with L = lcm(m, n): it is
    entry (p L/m + c L/n) of h, h repeated twice, where h is the L-point FFT
    of sigma scaled by 1/sqrt(m n).  So A is one FFT and a strided copy of
    [h, h].  For real_orthogonal, F_r and G_r^T are drawn as orthonormal
    columns from seeds seed and seed + 1; a seed gives the same matrix within
    one version of the package, not across versions.  Singular values of the
    result equal sigma_spectrum(spec) by unitary invariance.  A working set
    over MEMORY_BUDGET raises MemoryBudgetError before anything is built.
    """
    m, n = spec.m, spec.n
    r = min(m, n)
    if spec.transform == "dft":
        period = math.lcm(m, n)  # L
        # The working set: the real sigma, [h, h] and the m-by-n result; the
        # L-entry temporaries of h are freed before the result exists.
        required = r * 8 + (2 * period + m * n) * 16
    else:
        # F_r, Sigma G_r and the result, plus four max(m, n)-by-r arrays.
        # While a QR runs, its Gaussian stands in for F_r or Sigma G_r and
        # the four are its copy, Q and LAPACK's two work copies; in the
        # product they cover G_r.
        required = (m * r + r * n + m * n + 4 * max(m, n) * r) * 8
    if required > MEMORY_BUDGET:
        raise MemoryBudgetError(required, MEMORY_BUDGET)
    sig = sigma_spectrum(spec)
    if spec.transform == "dft":
        hh = np.tile(np.fft.fft(sig, n=period) / math.sqrt(m * n), 2)
        # Row p starts at p L/m < L and steps by L/n, so it ends before 2 L.
        strides = ((period // m) * hh.itemsize, (period // n) * hh.itemsize)
        return np.lib.stride_tricks.as_strided(hh, (m, n), strides, writeable=False).copy()
    f_r = orthonormal_columns(m, r, spec.seed)
    g_r = orthonormal_columns(n, r, spec.seed + 1).T
    return f_r @ (sig[:, None] * g_r)


def _reflected_transpose(m: int, r: int, seed: int):
    """x -> Q^T x for the complete m-by-m Q of the QR of gaussian_matrix(m, r, seed),
    applied from the QR's r Householder reflectors (LAPACK ormqr), never formed."""
    (h, tau), _ = qr(gaussian_matrix(m, r, seed, "real"), mode="raw")
    ormqr = get_lapack_funcs("ormqr", (h,))

    def apply(x):
        lwork = ormqr("L", "T", h, tau, x, -1)[1][0]
        return ormqr("L", "T", h, tau, x, int(lwork))[0]

    return apply


def residual_coordinates(spec: TestMatrixSpec, s_blocks):
    """The residuals A - S_i S_i^H A of a test matrix in its own coordinates.

    A = F Sigma_r G_r with F unitary m-by-m, Sigma_r the m-by-r diagonal
    [Sigma; 0] (r = min(m, n)) and G_r with r orthonormal rows.  With
    W_i = F^H S_i, A - S_i S_i^H A = F (Sigma_r - W_i W_i[:r]^H Sigma) G_r,
    whose norm is that of the m-by-r middle factor.  Returns
    (sigma, pairs, start) for power_method_norm(sigma, start=start,
    minus=pairs): Sigma_r as an m-by-r operator, the pairs
    (W_i, W_i[:r]^H Sigma), and G_r v_0 for the default start v_0 of a
    measurement on A.  Each iterate of that measurement is G_r^H times one of
    this, so the estimates agree up to rounding.  The pairs take
    T_i = S_i^H A, the ALS T-update.

    The transforms differ only in the maps S -> F^H S and v_0 -> G_r v_0.
    For the DFT they are an inverse FFT of S and the first r entries of an
    FFT of v_0.  For real_orthogonal, F is the complete Q of the build's QR
    (its first r columns are F_r up to rounding), and G_r v_0 the first r
    entries of Q_G^T v_0 for the QR that gives G_r.  F must be complete:
    S_i need not lie in range(F_r), and the thin F_r^T S_i would silently
    drop the part outside it (at 48x32, delta = 1e-3, arbitrary orthonormal
    blocks moved the estimate by 3e-3 relative, where rounding accounts for
    7e-12).  It is applied from reflectors: a formed F takes m^2 entries,
    more than the whole build of a spec with m > 6.2 r.
    """
    m, n, r = spec.m, spec.n, min(spec.m, spec.n)
    sig = sigma_spectrum(spec)
    if spec.transform == "dft":
        v0 = gaussian_matrix(n, 1, DEFAULT_POWER_SEED, "complex")
        start = np.fft.fft(v0, axis=0, norm="ortho")[:r]
        coordinates = functools.partial(np.fft.ifft, axis=0, norm="ortho")
    else:
        v0 = gaussian_matrix(n, 1, DEFAULT_POWER_SEED, "real")
        start = _reflected_transpose(n, r, spec.seed + 1)(v0)[:r]
        coordinates = _reflected_transpose(m, r, spec.seed)

    def forward(v):
        return np.concatenate([sig[:, None] * v, np.zeros((m - r, v.shape[1]))])

    def adjoint(u):
        return sig[:, None] * u[:r]

    sigma = LinearOperator(
        (m, r),
        matvec=lambda v: forward(v.reshape(r, 1)),
        rmatvec=lambda u: adjoint(u.reshape(m, 1)),
        matmat=forward,
        rmatmat=adjoint,
        dtype=np.float64,
    )
    pairs = []
    for s in s_blocks:
        w = coordinates(s)
        pairs.append((w, w[:r].conj().T * sig))
    return sigma, pairs, start
