"""Synthetic benchmark matrices with a prescribed singular spectrum.

A = F Sigma G where F and G are unitary (discrete Fourier transforms by
default, seeded real orthogonal matrices as a real-arithmetic alternative) and
Sigma is rectangular diagonal.  The spectrum has a geometric "head" decaying
from 1 down to delta over the first k values (two values per exponent step)
and a linear "tail" decaying from delta down to 0, so the best achievable
rank-k spectral error is exactly delta and the spectral norm of A is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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


def real_orthogonal_matrix(n: int, seed: int) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a seeded Gaussian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, _ = np.linalg.qr(gaussian_matrix(n, n, seed, "real"))
    return q


def build_test_matrix(spec: TestMatrixSpec) -> np.ndarray:
    """Materialize A = F Sigma G.

    Only the first min(m, n) columns of F and rows of G contribute.  For the
    DFT, entry (p, c) is sum_q sigma_q exp(-2 pi i q (p/m + c/n)) / sqrt(m n),
    which depends only on (p L/m + c L/n) mod L with L = lcm(m, n): it is
    entry (p L/m + c L/n) of h, h repeated twice, where h is the L-point FFT
    of sigma scaled by 1/sqrt(m n).  So A is one FFT and a strided copy of
    [h, h].  Singular values of the result equal sigma_spectrum(spec) by
    unitary invariance.  A working set over MEMORY_BUDGET raises
    MemoryBudgetError before anything is built.
    """
    m, n = spec.m, spec.n
    r = min(m, n)
    if spec.transform == "dft":
        period = math.lcm(m, n)  # L
        # The working set: the real sigma, [h, h] and the m-by-n result; the
        # L-entry temporaries of h are freed before the result exists.
        required = r * 8 + (2 * period + m * n) * 16
    else:
        # A QR of a p-by-p Gaussian peaks at five p-by-p arrays (the Gaussian,
        # its copy, Q and two LAPACK work copies); F's whole Q outlives its
        # [:, :r] view, and the product holds F, G, Sigma G and the result.
        required = max(5 * m * m, m * m + 5 * n * n, m * m + n * n + r * n + m * n) * 8
    if required > MEMORY_BUDGET:
        raise MemoryBudgetError(required, MEMORY_BUDGET)
    sig = sigma_spectrum(spec)
    if spec.transform == "dft":
        hh = np.tile(np.fft.fft(sig, n=period) / math.sqrt(m * n), 2)
        # Row p starts at p L/m < L and steps by L/n, so it ends before 2 L.
        strides = ((period // m) * hh.itemsize, (period // n) * hh.itemsize)
        return np.lib.stride_tricks.as_strided(hh, (m, n), strides, writeable=False).copy()
    f_cols = real_orthogonal_matrix(m, spec.seed)[:, :r]
    g_rows = real_orthogonal_matrix(n, spec.seed + 1)[:r, :]
    return f_cols @ (sig[:, None] * g_rows)


def dft_operator(spec: TestMatrixSpec) -> LinearOperator:
    """The DFT test matrix F Sigma G as an operator applied by FFTs.

    It is the exact product, never materialized: A V is the n-point FFT down
    the columns of V, scaled by sigma on its first min(m, n) rows and zero
    padded to an m-point FFT; A^H U runs the inverse transforms the same way.
    An apply costs O((m log m + n log n) c) for c columns, against O(m n c)
    on the dense build, which is the rounding of this operator.  Residuals of
    a wide spec (m <= n) are measured smaller, in dft_coordinates; this
    operator serves the tall ones.
    """
    if spec.transform != "dft":
        raise ValueError(f"dft_operator needs the dft transform, got {spec.transform!r}")
    m, n = spec.m, spec.n
    r = min(m, n)
    sig = sigma_spectrum(spec)[:, None]

    def matmat(v):
        return np.fft.fft(sig * np.fft.fft(v, axis=0, norm="ortho")[:r], n=m, axis=0, norm="ortho")

    def rmatmat(u):
        return np.fft.ifft(sig * np.fft.ifft(u, axis=0, norm="ortho")[:r], n=n, axis=0, norm="ortho")

    return LinearOperator(
        (m, n),
        matvec=lambda v: matmat(v.reshape(n, 1)),
        rmatvec=lambda u: rmatmat(u.reshape(m, 1)),
        matmat=matmat,
        rmatmat=rmatmat,
        dtype=np.complex128,
    )


def dft_coordinates(spec: TestMatrixSpec, s_blocks):
    """The residuals A - S_i S_i^H A of a wide DFT spec in the DFT's coordinates.

    For m <= n, A = F Sigma G_r with F the unitary m-point DFT and G_r the
    first r = m rows of the n-point one.  With W_i = F^H S_i,
    A - S_i S_i^H A = F (Sigma - W_i W_i^H Sigma) G_r, whose norm is that of
    the r-by-r middle factor.  Returns (sigma, pairs, start) for
    power_method_norm(sigma, start=start, minus=pairs): the diagonal Sigma as
    an r-by-r operator, the pairs (W_i, W_i^H Sigma), and G_r v_0 for the
    default start v_0 of a measurement on dft_operator(spec).  Each iterate
    of that measurement is G_r^H times one of this, so the estimates agree up
    to rounding.  The pairs take T_i = S_i^H A, the ALS T-update.

    A tall spec (m > n) raises ValueError: its F_r is m-by-r, and dropping
    the part of S_i outside range(F_r) would cost about eps/delta relative.
    No benchmark grid is tall, so tall specs stay on dft_operator rather than
    an (r + k)-by-r completion.
    """
    if spec.transform != "dft" or spec.m > spec.n:
        raise ValueError(f"dft_coordinates needs a dft spec with m <= n, got {spec}")
    r = spec.m
    sig = sigma_spectrum(spec)

    def scale(v):
        return sig[:, None] * v

    sigma = LinearOperator(
        (r, r),
        matvec=lambda v: scale(v.reshape(r, 1)),
        rmatvec=lambda v: scale(v.reshape(r, 1)),
        matmat=scale,
        rmatmat=scale,
        dtype=np.float64,
    )
    pairs = []
    for s in s_blocks:
        w = np.fft.ifft(s, axis=0, norm="ortho")
        pairs.append((w, w.conj().T * sig))
    v0 = gaussian_matrix(spec.n, 1, DEFAULT_POWER_SEED, "complex")
    return sigma, pairs, np.fft.fft(v0, axis=0, norm="ortho")[:r]
