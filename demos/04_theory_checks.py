"""Watching the theory hold numerically.

Three facts drive the whole method, and each is checkable on a small matrix:

1. the column space of the i-th ALS factor S_i equals that of (A A*)^i S_0,
   so ALS is implicitly running subspace (power) iteration;
2. the ranks of S_0* A, T_0, A T_0*, S_1, ... form a constant chain;
3. each half-step's least-squares solution minimizes the residual in the
   spectral and Frobenius norms simultaneously.
"""

import numpy as np

from lowrank_als import AlsConfig, frobenius_norm, gaussian_matrix, small_svd
from lowrank_als.als import als_init, als_update_s, als_update_t
from lowrank_als.verify import lstsq_solve, projector

a = gaussian_matrix(10, 8, seed=3)

# 1. Column spaces: compare orthogonal projectors.
state = als_init(a, AlsConfig(rank_k=2, iterations_j=3, seed=0))
reference = state.s.copy()
aat = a @ a.conj().T
print("projector distance between col(S_i) and col((A A*)^i S_0):")
for i in range(1, 4):
    als_update_t(state)
    als_update_s(state)
    reference = aat @ reference
    reference /= frobenius_norm(reference)
    dist = frobenius_norm(projector(state.s) - projector(reference))
    print(f"  i={i}: {dist:.2e}")

# 2. The rank chain.
s0 = gaussian_matrix(10, 2, seed=1)
t0 = lstsq_solve(s0, a)
chain = {"S0* A": s0.conj().T @ a, "T0": t0, "A T0*": a @ t0.conj().T}
print("\nrank chain:", {name: int(np.linalg.matrix_rank(mat)) for name, mat in chain.items()})

# 3. Simultaneous minimization in both norms.
s = gaussian_matrix(10, 3, seed=2)
t_opt = lstsq_solve(s, a)
base = s @ t_opt - a
rng = np.random.default_rng(0)
worst_f = worst_s = 0.0
for _ in range(200):
    t_pert = t_opt + 0.1 * rng.standard_normal(t_opt.shape)
    resid = s @ t_pert - a
    worst_f = max(worst_f, frobenius_norm(base) - frobenius_norm(resid))
    worst_s = max(worst_s, small_svd(base).sigma[0] - small_svd(resid).sigma[0])
print("\nbest improvement found by 200 random perturbations of the optimal T:")
print(f"  Frobenius: {worst_f:.2e}   spectral: {worst_s:.2e}   (>0 would refute optimality)")
