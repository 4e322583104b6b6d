"""Numerical verification suites for the theory behind the ALS iteration.

Each check runs on small random instances and returns a VerificationResult;
run_all drives the full collection.  These back the --verify flag of the
benchmark CLI and the acceptance tests.  The least-squares solves and the
orthogonal projector live here because only these checks use them: the ALS
iteration itself keeps S orthonormal and never solves a general least-squares
problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .als import AlsConfig, als_init, als_update_s, als_update_t
from .matrix import frobenius_norm, gaussian_matrix, orthonormal_basis, small_svd
from .spectral import power_method_norm
from .testmat import orthonormal_columns


class RankDeficientError(ValueError):
    """Raised for a rank-deficient least-squares operand when no fallback was requested."""


def lstsq_solve(s, a, rank_deficient_ok: bool = False) -> np.ndarray:
    """Return the T minimizing ||S T - A|| in both the spectral and Frobenius norms.

    Computed by LAPACK gelsd (SVD-based), never by forming S*S, with singular
    values of s below max(p, q) * eps * sigma_max counted as zero.  A
    rank-deficient s raises RankDeficientError unless ``rank_deficient_ok`` is
    set, in which case the minimum-norm (pseudoinverse) solution is returned.
    scipy rejects non-finite entries and a row-count mismatch with ValueError.
    """
    cond = max(np.shape(s)) * np.finfo(np.float64).eps
    t, _, rank, _ = scipy.linalg.lstsq(s, a, cond=cond)
    if rank < np.shape(s)[1] and not rank_deficient_ok:
        raise RankDeficientError("rank-deficient least-squares operand")
    return t


def lstsq_solve_right(t, a, rank_deficient_ok: bool = False) -> np.ndarray:
    """Return the S minimizing ||S T - A||; the adjoint problem of lstsq_solve."""
    return lstsq_solve(t.conj().T, a.conj().T, rank_deficient_ok).conj().T


def projector(a) -> np.ndarray:
    """Orthogonal projector Q Q* onto col(a), with Q from orthonormal_basis.

    Idempotent and self-adjoint; the zero matrix has an m-by-0 basis and so
    maps to the zero projector.
    """
    q = orthonormal_basis(a)
    return q @ q.conj().T


@dataclass(frozen=True)
class VerificationResult:
    name: str
    passed: bool
    detail: str


# The checks' fixed protocol: instance counts, powers of A A*, the gate on a
# subspace or recurrence deviation, and the recurrence instances' condition.
INSTANCES = 20
MAX_POWER = 3
TOL = 1e-8
DEFICIENT_INSTANCES = 5
PERTURBATIONS = 100
N_OPERATORS = 50
CONDITION = 10.0


def check_column_space_theorem():
    """col(S_i) must match col((A A*)^i S_0), compared through orthogonal projectors.

    The power-iterate reference is rescaled to unit Frobenius norm after each
    application of A A* to dodge overflow/underflow.
    """
    worst = 0.0
    for idx in range(INSTANCES):
        a = gaussian_matrix(8, 6, seed=1000 + idx)
        cfg = AlsConfig(rank_k=2, iterations_j=MAX_POWER, seed=idx)
        state = als_init(a, cfg)
        reference = state.s.copy()
        aat = a @ a.conj().T
        for _ in range(MAX_POWER):
            als_update_t(state)
            als_update_s(state)
            reference = aat @ reference
            reference = reference / frobenius_norm(reference)
            dist = frobenius_norm(projector(state.s) - projector(reference))
            worst = max(worst, dist)
    return VerificationResult(
        "column-space theorem",
        worst <= TOL,
        f"max projector distance {worst:.3e} (tol {TOL:.0e})",
    )


def _rank_chain(a: np.ndarray, k: int, seed: int) -> list[int]:
    s0 = gaussian_matrix(a.shape[0], k, seed)
    t0 = lstsq_solve(s0, a, rank_deficient_ok=True)
    s1 = lstsq_solve_right(t0, a, rank_deficient_ok=True)
    t1 = lstsq_solve(s1, a, rank_deficient_ok=True)
    s2 = lstsq_solve_right(t1, a, rank_deficient_ok=True)
    chain = [
        s0.conj().T @ a,
        t0,
        a @ t0.conj().T,
        s1,
        s1.conj().T @ a,
        t1,
        a @ t1.conj().T,
        s2,
    ]
    return [int(np.linalg.matrix_rank(x)) for x in chain]


def check_rank_chain():
    """The ranks of S_0* A, T_0, A T_0*, S_1, S_1* A, T_1, A T_1*, S_2 all agree."""
    bad = []
    for idx in range(INSTANCES):
        a = gaussian_matrix(8, 6, seed=2000 + idx)
        ranks = _rank_chain(a, k=2, seed=idx)
        if len(set(ranks)) != 1 or ranks[0] != 2:
            bad.append((idx, ranks))
    for idx in range(DEFICIENT_INSTANCES):
        # rank(A) = k - 1: the chain settles at k - 1, via the pseudoinverse fallback.
        k = 3
        g = gaussian_matrix(8, k - 1, seed=3000 + idx)
        h = gaussian_matrix(k - 1, 6, seed=3100 + idx)
        ranks = _rank_chain(g @ h, k=k, seed=idx)
        if len(set(ranks)) != 1 or ranks[0] != k - 1:
            bad.append((("deficient", idx), ranks))
    return VerificationResult(
        "rank chain",
        not bad,
        "all chains equal" if not bad else f"mismatches: {bad}",
    )


def _conditioned_instance(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    r = min(m, n)
    d = np.sort(rng.uniform(1.0 / CONDITION, 1.0, size=r))[::-1]
    d[0] = 1.0
    u = orthonormal_columns(m, r, seed + 7)
    v = orthonormal_columns(n, r, seed + 13)
    return u @ (d[:, None] * v.T)


def _raw_iterates(a: np.ndarray, k: int, iterations: int, seed: int) -> list[np.ndarray]:
    """Textbook ALS iterates S_0, ..., S_iterations, never re-orthonormalized.

    S_0 = A Omega with the same Gaussian draw as als_init; then
    T_i = argmin ||S_i T - A|| and S_{i+1} = argmin ||S T_i - A||.  The
    iterates carry the powers (A A*)^i unscaled, so keep ``iterations`` small.
    """
    fld = "complex" if np.iscomplexobj(a) else "real"
    s = a @ gaussian_matrix(a.shape[1], k, seed, fld)
    iterates = [s]
    for _ in range(iterations):
        s = lstsq_solve_right(lstsq_solve(s, a), a)
        iterates.append(s)
    return iterates


def check_unrolled_recurrence():
    """Raw iterates satisfy S_i = (A A*)^i S_0 B_0 ... B_{i-1} with
    B_i = (S_i* A A* S_i)^{-1} S_i* S_i, on condition-bounded instances."""
    worst = 0.0
    for idx in range(INSTANCES):
        a = _conditioned_instance(8, 6, seed=4000 + idx)
        aat = a @ a.conj().T
        s_raw = _raw_iterates(a, k=2, iterations=MAX_POWER, seed=idx)
        product = np.eye(2)
        power = s_raw[0]
        for i in range(1, MAX_POWER + 1):
            s_prev = s_raw[i - 1]
            b_prev = np.linalg.solve(s_prev.conj().T @ aat @ s_prev, s_prev.conj().T @ s_prev)
            product = product @ b_prev
            power = aat @ power
            rhs = power @ product
            rel = frobenius_norm(s_raw[i] - rhs) / frobenius_norm(s_raw[i])
            worst = max(worst, rel)
    return VerificationResult(
        "unrolled recurrence",
        worst <= TOL,
        f"max relative deviation {worst:.3e} (tol {TOL:.0e})",
    )


def check_minimizer_optimality():
    """lstsq_solve beats every perturbed T in both the Frobenius and spectral norms."""
    slack_hits = 0
    worst = -np.inf
    for idx in range(INSTANCES):
        s = gaussian_matrix(6, 2, seed=5000 + idx)
        a = gaussian_matrix(6, 5, seed=5100 + idx)
        t_opt = lstsq_solve(s, a)
        base_f = frobenius_norm(s @ t_opt - a)
        base_s = float(small_svd(s @ t_opt - a).sigma[0])
        norm_f = frobenius_norm(a)
        norm_s = float(small_svd(a).sigma[0])
        rng = np.random.Generator(np.random.PCG64(6000 + idx))
        for _ in range(PERTURBATIONS):
            scale = 10.0 ** rng.uniform(-8, 2)
            t_pert = t_opt + scale * rng.standard_normal(t_opt.shape)
            resid = s @ t_pert - a
            loss_f = base_f - frobenius_norm(resid)
            loss_s = base_s - float(small_svd(resid).sigma[0])
            worst = max(worst, loss_f / norm_f, loss_s / norm_s)
            if loss_f > 1e-12 * norm_f or loss_s > 1e-12 * norm_s:
                slack_hits += 1
    return VerificationResult(
        "least-squares minimizer",
        slack_hits == 0,
        f"worst relative win by a perturbation {worst:.3e} (allowed 1e-12)",
    )


def check_power_method():
    """Power-method estimate is a lower bound on sigma_1 and converges when gapped."""
    bad = []
    rng = np.random.Generator(np.random.PCG64(7000))
    for idx in range(N_OPERATORS):
        p = int(rng.integers(2, 65))
        q = int(rng.integers(2, 65))
        if idx % 5 == 0:
            # Constructed gap: sigma_2 / sigma_1 <= 0.9 guaranteed.
            r = min(p, q)
            d = np.concatenate([[1.0], rng.uniform(0.0, 0.9, size=r - 1)])
            u = orthonormal_columns(p, r, 7100 + idx)
            v = orthonormal_columns(q, r, 7200 + idx)
            a = u @ (np.sort(d)[::-1][:, None] * v.T)
        else:
            a = gaussian_matrix(p, q, seed=7300 + idx)
        sig = small_svd(a).sigma
        est = power_method_norm(a, start=gaussian_matrix(q, 1, idx))
        if est > sig[0] * (1.0 + 1e-12):
            bad.append((idx, "upper", est, float(sig[0])))
        if sig.size > 1 and sig[0] > 0 and sig[1] <= 0.9 * sig[0]:
            if abs(est - sig[0]) > 1e-8 * sig[0]:
                bad.append((idx, "gap", est, float(sig[0])))
    return VerificationResult(
        "power-method contract",
        not bad,
        "all bounds held" if not bad else f"violations: {bad}",
    )


def run_all() -> list[VerificationResult]:
    return [
        check_column_space_theorem(),
        check_rank_chain(),
        check_unrolled_recurrence(),
        check_minimizer_optimality(),
        check_power_method(),
    ]
