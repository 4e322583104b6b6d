"""Synthetic benchmark matrices with a prescribed singular spectrum.

A = F Sigma G where F and G are unitary (discrete Fourier transforms by
default, orthonormal discrete Hartley transforms as the real-arithmetic
alternative) and Sigma is rectangular diagonal.  The spectrum has a geometric "head" decaying
from 1 down to delta over the first k values (two values per exponent step)
and a linear "tail" decaying from delta down to 0, so the best achievable
rank-k spectral error is exactly delta and the spectral norm of A is 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matrix import gaussian_matrix
from .spectral import DEFAULT_POWER_SEED, ColumnDiagonal

# Cap on the working set of build_test_matrix, in bytes.
MEMORY_BUDGET = 4 << 30


@dataclass(frozen=True)
class TestMatrixSpec:
    __test__ = False  # not a pytest class, despite the name

    m: int
    n: int
    k: int
    delta: float
    transform: str = "dft"
    seed: int = 0  # read by no transform (see build_test_matrix)

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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


def _working_set_bytes(spec: TestMatrixSpec) -> int:
    """The bytes build_test_matrix(spec) needs at its peak: sigma, then the
    larger of the L-point FFT and [h, h] with the result, and 6 MiB.

    numpy's FFT peaks at 9 L complex entries for an L with a large prime
    factor, done by Bluestein's algorithm (measured at L = 519689 to 2081819),
    and at 2-3 L otherwise; 10 L are counted.  The 6 MiB are mostly the
    code pages of the loops a build runs: 3.3-3.9 MiB of peak-RSS growth in a
    forked child at 14 shapes of either field (Linux x86-64, numpy 2.4).
    """
    period = math.lcm(spec.m, spec.n)  # L
    result = spec.m * spec.n * (16 if spec.transform == "dft" else 8)
    return min(spec.m, spec.n) * 8 + max(10 * period * 16, 2 * period * 16 + result) + (6 << 20)


def build_test_matrix(spec: TestMatrixSpec) -> np.ndarray:
    """Materialize A = F Sigma G.

    Only the first r = min(m, n) columns of F and rows of G contribute.  Both
    fields read h, the L-point FFT of sigma over sqrt(m n), L = lcm(m, n).
    DFT entry (p, c) is sum_q sigma_q exp(-2 pi i q (p/m + c/n)) / sqrt(m n)
    = h[(p L/m + c L/n) mod L], a strided copy of h repeated twice.  For
    real_orthogonal, F = H_m and G = H_n, with H_p[i, q] = cas(2 pi i q / p)
    / sqrt(p) (cas = cos + sin) the real, symmetric and orthogonal discrete
    Hartley transform.  As cas x cas y = cos(x - y) + sin(x + y), entry
    (p, c) is Re h[(p L/m - c L/n) mod L] - Im h[(p L/m + c L/n) mod L].
    Singular values of the result equal sigma_spectrum(spec) by unitary
    invariance.  A working set over MEMORY_BUDGET raises ValueError first.

    Both families are deterministic: no transform reads spec.seed, which
    stays a validated field so that callers passing seed= keep working.  The
    error ||A - S S^H A|| after ALS from a Gaussian Omega depends only on
    Sigma and on G_r Omega, which is Gaussian for any G_r with orthonormal
    rows, so a seeded G_r adds nothing to its distribution.  Nor do seeded
    signs on Sigma, to which the error is exactly invariant; and a draw from
    PCG64(seed) would share its stream with the ALS seed of the same value.
    """
    required = _working_set_bytes(spec)
    if required > MEMORY_BUDGET:
        raise ValueError(f"test matrix needs ~{required} bytes, over the budget of {MEMORY_BUDGET} bytes")
    m, n = spec.m, spec.n
    period = math.lcm(m, n)  # L
    hh = np.tile(np.fft.fft(sigma_spectrum(spec), n=period) / math.sqrt(m * n), 2)
    # Row p starts at p L/m < L and steps by L/n, so it ends before 2 L.
    strides = ((period // m) * hh.itemsize, (period // n) * hh.itemsize)
    plus = np.lib.stride_tricks.as_strided(hh, (m, n), strides, writeable=False)
    if spec.transform == "dft":
        return plus.copy()
    # Row p starts at L + p L/m and steps back by L/n, so it stays in (0, 2 L).
    minus = np.lib.stride_tricks.as_strided(hh[period:], (m, n), (strides[0], -strides[1]), writeable=False)
    return np.subtract(minus.real, plus.imag, order="C")


def _hartley(x: np.ndarray) -> np.ndarray:
    """H_m x down the columns of the real m-row ``x``: H_m = Re F - Im F for the unitary DFT F."""
    f = np.fft.fft(x, axis=0, norm="ortho")
    return f.real - f.imag


def residual_coordinates(spec: TestMatrixSpec, s_blocks):
    """The residuals A - S_i S_i^H A of a test matrix in its own coordinates.

    A = F Sigma_r G_r with F unitary m-by-m, Sigma_r the m-by-r diagonal
    [Sigma; 0] (r = min(m, n)) and G_r with r orthonormal rows.  With
    W_i = F^H S_i, A - S_i S_i^H A = F (Sigma_r - W_i W_i[:r]^H Sigma) G_r,
    whose norm is that of the m-by-r middle factor.  Returns
    (sigma, pairs, start) for power_method_norm(sigma, start=start,
    minus=pairs): Sigma_r as the ColumnDiagonal of sigma_spectrum(spec) with
    m rows, which power_method_norm applies by elementwise products, the pairs
    (W_i, W_i[:r]^H Sigma), and G_r v_0 for the default start v_0 of a
    measurement on A.  Each iterate of that measurement is G_r^H times one of
    this, so the estimates agree up to rounding.  The pairs take
    T_i = S_i^H A, the ALS T-update.

    The transforms differ only in the maps S -> F^H S and v_0 -> G_r v_0:
    an inverse FFT of S and the first r entries of an FFT of v_0 for the
    DFT, and Hartley transforms (H_m and H_n are symmetric) for
    real_orthogonal.  Both F are complete m-by-m transforms: S_i need not lie
    in range(F_r), and a thin F_r^H S_i would silently drop the part outside it.
    """
    m, n, r = spec.m, spec.n, min(spec.m, spec.n)
    sig = sigma_spectrum(spec)
    if spec.transform == "dft":
        start = np.fft.fft(gaussian_matrix(n, 1, DEFAULT_POWER_SEED, "complex"), axis=0, norm="ortho")[:r]
        coordinates = functools.partial(np.fft.ifft, axis=0, norm="ortho")
    else:
        start = _hartley(gaussian_matrix(n, 1, DEFAULT_POWER_SEED, "real"))[:r]
        coordinates = _hartley
    pairs = [(w, w[:r].conj().T * sig) for w in map(coordinates, s_blocks)]
    return ColumnDiagonal(sig, m), pairs, start
