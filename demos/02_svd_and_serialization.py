"""From an ALS factorization to an SVD, and on to disk.

Any factorization A ~ S T converts to singular-value form in O((m+n) k^2)
work, without ever touching an m x n matrix.  Matrices and factorizations
serialize to a small binary format; a factorization adds a JSON sidecar.
"""

import tempfile
from pathlib import Path

import numpy as np

from lowrank_als import (
    AlsConfig,
    als_run,
    factorization_to_svd,
    gaussian_matrix,
    load_factorization,
    save_factorization,
)

a = gaussian_matrix(120, 80, seed=7)
fact = als_run(a, AlsConfig(rank_k=5, iterations_j=3, seed=1, track_errors=True))

triplet = factorization_to_svd(fact.s, fact.t)
print("singular values of the rank-5 approximation:")
print(" ", np.round(triplet.sigma, 4))
print("top singular values of A itself:")
print(" ", np.round(np.linalg.svd(a, compute_uv=False)[:5], 4))

recon = triplet.u @ np.diag(triplet.sigma) @ triplet.v.conj().T
print(f"\n||U diag(sigma) V* - S T||_F = {np.linalg.norm(recon - fact.s @ fact.t):.2e}")

with tempfile.TemporaryDirectory() as tmp:
    target = Path(tmp) / "approx"
    save_factorization(target, fact)
    print(f"\nwrote {sorted(p.name for p in target.iterdir())}")
    back = load_factorization(target)
    print("roundtrip exact:", np.array_equal(back.s, fact.s) and np.array_equal(back.t, fact.t))
    print("tracked residuals:", [round(x, 4) for x in back.frobenius_error_trace])
