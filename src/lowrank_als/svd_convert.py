"""Conversion of a rank-k factorization S T into singular value decomposition form."""

from __future__ import annotations

import numpy as np

from .matrix import SvdTriplet, as_matrix


def factorization_to_svd(s, t) -> SvdTriplet:
    """SVD of the product S T without ever forming an m-by-n matrix.

    QR of s gives (Q, R); the small SVD of R t gives (U~, sigma, V); the result
    is (Q U~, sigma, V).  Cost is O((m + n) k^2 + k^3).  A rank-deficient s is
    fine: the trailing singular values come out (numerically) zero.

    Singular vectors are phase-canonicalized: the largest-magnitude entry of
    each column of U is made real and positive, with the matching phase applied
    to V so the product is unchanged.
    """
    s = as_matrix(s, "s")
    t = as_matrix(t, "t")
    if s.shape[1] != t.shape[0]:
        raise ValueError(f"incompatible shapes {s.shape} and {t.shape}")
    k = s.shape[1]
    if k > min(s.shape[0], t.shape[1]):
        raise ValueError("inner dimension k must not exceed min(m, n)")
    q, r = np.linalg.qr(s)
    # r @ t is k-by-n and finite: an SVD of it costs O(n k^2).
    inner_u, sigma, inner_vh = np.linalg.svd(r @ t, full_matrices=False)
    u, v = _canonicalize_phases(q @ inner_u, inner_vh.conj().T)
    return SvdTriplet(u, sigma, v)


def _canonicalize_phases(u: np.ndarray, v: np.ndarray):
    # Scales the columns of u and v in place: the one caller passes fresh arrays.
    for col in range(u.shape[1]):
        idx = int(np.argmax(np.abs(u[:, col])))
        pivot = u[idx, col]
        mag = abs(pivot)
        if mag == 0.0:
            continue
        # u sigma v* is invariant under (u, v) -> (u / phase, v / phase).
        phase = pivot / mag
        u[:, col] = u[:, col] / phase
        v[:, col] = v[:, col] / phase
    return u, v
