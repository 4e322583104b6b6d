"""A first tour: rank-k approximation of a matrix in a couple of ALS sweeps.

The point being demonstrated: starting from a random sketch, each sweep of
alternating least squares solves one least-squares problem per factor, and
after only one or two sweeps the approximation error is essentially the best
achievable for the chosen rank.
"""

import numpy as np

from lowrank_als import AlsConfig, als_run

# A 200 x 150 matrix with smoothly decaying singular values.
rng = np.random.default_rng(0)
u, _ = np.linalg.qr(rng.standard_normal((200, 150)))
v, _ = np.linalg.qr(rng.standard_normal((150, 150)))
decay = 0.7 ** np.arange(150)
a = u @ (decay[:, None] * v.T)

k = 8
sigma = np.linalg.svd(a, compute_uv=False)
print(f"target rank {k}; best possible spectral error = sigma_{k+1} = {sigma[k]:.4e}\n")

print(f"{'sweeps j':>8} {'spectral error':>16} {'error / optimal':>16}")
for j in [0, 1, 2, 5]:
    fact = als_run(a, AlsConfig(rank_k=k, iterations_j=j, seed=42))
    err = np.linalg.svd(a - fact.s @ fact.t, compute_uv=False)[0]
    print(f"{j:>8} {err:>16.4e} {err / sigma[k]:>16.4f}")

print("\nNote the jump from j=0 (pure random projection) to j=1, and how")
print("little improves after j=2: iterating to convergence buys nothing.")
