"""Alternating least squares from a random start.

The iteration alternates two optimal half-steps: with S fixed, T is the least-
squares minimizer of ||S T - A||; with T fixed, S is the minimizer of the same
residual.  A handful of such sweeps from a Gaussian S_0 already yields a nearly
optimal rank-k approximation; no convergence test is performed anywhere.

col(S_i) = col((A A*)^i S_0), so the final approximation depends on S only
through its column space.  The iteration therefore keeps S orthonormal: each
T-update is T = S* A, and each S-update orthonormalizes A Q, where the columns
of Q are an orthonormal basis of col(T*).  A T^+ = A Q R^{-*} spans the same
columns, so this is the least-squares S-update up to a change of basis.  A is
validated once, by als_init, and used as given by both half-steps.  The
textbook iterates without re-orthonormalization live in verify.py, as the
reference for the unrolled recurrence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import io
from .matrix import adjoint, as_matrix, frobenius_norm, gaussian_matrix, orthonormal_basis
from .spectral import power_method_norm


@dataclass(frozen=True)
class AlsConfig:
    rank_k: int
    iterations_j: int
    seed: int
    track_errors: bool = False


@dataclass(frozen=True)
class Factorization:
    """Rank-k approximation A ~ s @ t, with the iteration count and seed that
    produced it and, optionally, one Frobenius residual per half-step."""

    s: np.ndarray
    t: np.ndarray
    iterations_j: int
    seed: int
    frobenius_error_trace: list[float] | None = None


@dataclass
class AlsState:
    """Iterate of the ALS loop over the validated matrix ``a``.

    ``s`` always has orthonormal columns (at most rank_k of them: fewer when
    rank(A) < rank_k); als_update_t relies on this to compute T = S* A.
    """

    a: np.ndarray
    config: AlsConfig
    s: np.ndarray
    t: np.ndarray | None = None
    error_trace: list[float] = field(default_factory=list)


def _validate(config: AlsConfig, shape) -> None:
    m, n = shape
    if not 1 <= config.rank_k <= min(m, n):
        raise ValueError(f"rank_k={config.rank_k} must lie in [1, {min(m, n)}] for shape {shape}")
    if config.iterations_j < 0:
        raise ValueError("iterations_j must be nonnegative")


def als_init(a, config: AlsConfig) -> AlsState:
    """Validate A and draw the orthonormalized random start S_0.

    S_0 spans col(A @ Omega) with Omega an i.i.d. standard-normal n-by-k
    matrix: the classical randomized range sketch.  An ambient Gaussian S_0
    (not passed through A) would make the zero-iteration baseline
    approximation useless, with error near ||A||; sketching through A gives the
    familiar random-projection baseline that the iteration then refines.
    Raises ValueError when the sketch has numerical rank 0 (A is zero to
    working precision).
    """
    a = as_matrix(a)
    _validate(config, a.shape)
    fld = "complex" if np.iscomplexobj(a) else "real"
    s0 = orthonormal_basis(a @ gaussian_matrix(a.shape[1], config.rank_k, config.seed, fld))
    if s0.shape[1] == 0:
        raise ValueError("the sketch A @ Omega has numerical rank 0; A is zero to working precision")
    return AlsState(a=a, config=config, s=s0)


def als_update_t(state: AlsState) -> AlsState:
    """Half-step: T <- argmin ||S T - A||, S fixed; T = S* A as S is orthonormal."""
    state.t = adjoint(state.s) @ state.a
    if state.config.track_errors:
        state.error_trace.append(frobenius_norm(state.s @ state.t - state.a))
    return state


def als_update_s(state: AlsState) -> AlsState:
    """Half-step: S <- argmin ||S T - A||, T fixed, returned orthonormalized.

    The minimizer A T^+ has the columns of A Q, Q an orthonormal basis of
    col(T*).  The tracked residual is that of the minimizer,
    ||A Q Q* - A||.
    """
    q = orthonormal_basis(adjoint(state.t))
    aq = state.a @ q
    if state.config.track_errors:
        state.error_trace.append(frobenius_norm(aq @ adjoint(q) - state.a))
    state.s = orthonormal_basis(aq)
    return state


def als_trajectory(a, config: AlsConfig):
    """Yield the Factorization (S_i, T_i) after each T-update, i = 0..iterations_j.

    One iteration from one random start: the value yielded at i is, bit for
    bit, als_run with iterations_j = i, so a caller that needs several
    iteration counts of one seed runs the iteration once.  Each value's
    iterations_j is i and its error trace, when tracked, is the trace so far.
    """
    state = als_init(a, config)
    for i in range(config.iterations_j + 1):
        if i:
            als_update_s(state)
        als_update_t(state)
        yield Factorization(
            s=state.s,
            t=state.t,
            iterations_j=i,
            seed=config.seed,
            frobenius_error_trace=list(state.error_trace) if config.track_errors else None,
        )


def als_run(a, config: AlsConfig) -> Factorization:
    """Run exactly ``iterations_j`` S-updates and finish with a T-update.

    The output is (S_j, T_j): T is always optimal for the final S.  With
    iterations_j = 0 this is the pure random-projection baseline (S_0, T_0).
    It is the last value of als_trajectory.
    """
    for factorization in als_trajectory(a, config):
        pass
    return factorization


def approximation_error(a, factorization: Factorization, norm: str = "spectral") -> float:
    """Norm of A - S T, never forming the residual for the spectral norm.

    The spectral norm is the paper's epsilon: power_method_norm with its
    defaults on A minus S T.  For other iteration counts or start seeds, call
    power_method_norm directly.  The Frobenius norm is computed directly.
    """
    a = as_matrix(a)
    s, t = factorization.s, factorization.t
    if a.shape != (s.shape[0], t.shape[1]):
        raise ValueError(f"factorization shape {(s.shape[0], t.shape[1])} does not match {a.shape}")
    if norm == "frobenius":
        return frobenius_norm(a - s @ t)
    if norm != "spectral":
        raise ValueError(f"unknown norm {norm!r}")
    return power_method_norm(a, minus=[(s, t)])[0]


def save_factorization(directory, factorization: Factorization) -> None:
    """Write S and T in the binary matrix format plus a JSON sidecar."""
    os.makedirs(directory, exist_ok=True)
    io.save_matrix(os.path.join(directory, "s.alsm"), factorization.s)
    io.save_matrix(os.path.join(directory, "t.alsm"), factorization.t)
    meta = {
        "rank_k": int(factorization.s.shape[1]),
        "iterations_j": int(factorization.iterations_j),
        "seed": int(factorization.seed),
        "error_trace": factorization.frobenius_error_trace,
    }
    with open(os.path.join(directory, "factorization.json"), "w") as f:
        json.dump(meta, f, indent=2)


def load_factorization(directory) -> Factorization:
    """Read a factorization written by save_factorization.

    Raises ValueError when the ranks of S, T and the sidecar disagree.  Keys
    of the sidecar other than those read here are ignored.
    """
    s = io.load_matrix(os.path.join(directory, "s.alsm"))
    t = io.load_matrix(os.path.join(directory, "t.alsm"))
    with open(os.path.join(directory, "factorization.json")) as f:
        meta = json.load(f)
    if not s.shape[1] == t.shape[0] == meta["rank_k"]:
        raise ValueError(
            f"{directory}: S is {s.shape}, T is {t.shape} and the sidecar says "
            f"rank_k={meta['rank_k']}"
        )
    return Factorization(
        s=s,
        t=t,
        iterations_j=meta["iterations_j"],
        seed=meta["seed"],
        frobenius_error_trace=meta.get("error_trace"),
    )
