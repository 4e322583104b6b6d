"""Alternating least squares from a random start.

The iteration alternates two optimal half-steps: with S fixed, T is the least-
squares minimizer of ||S T - A||; with T fixed, S is the minimizer of the same
residual.  A handful of such sweeps from a Gaussian S_0 already yields a nearly
optimal rank-k approximation; no convergence test is performed anywhere.

col(S_i) = col((A A*)^i S_0), so the final approximation depends on S only
through its column space.  The iteration therefore keeps S orthonormal: each
T-update is T = S* A, and each S-update orthonormalizes A Q, where the columns
of Q are an orthonormal basis of col(T*).  A T^+ = A Q R^{-*} spans the same
columns, so this is the least-squares S-update up to a change of basis.  The
products A V (the sketch and A Q) are matrix.times.  Every basis keeps all
rank_k columns of its QR, also when rank(A) < rank_k; orthonormal_basis
says why that cannot raise the error.  The textbook iterates without
re-orthonormalization live in verify.py, as the reference for the unrolled
recurrence.

A is validated once, where it enters the package: als_run passes it through
as_matrix, while als_init and als_trajectories take a validated array (as
as_matrix returns it, or as build_test_matrix builds it) and use it as given,
as do both half-steps.  A NaN or inf in A still fails loudly: it reaches the
sketch A Omega, whose orthonormal_basis raises ValueError.

Several random starts of one matrix run as one batch (als_trajectories): the
state holds the seeds' blocks of rank_k columns side by side, so each
half-step makes one product with A for all of them, and each seed's block is
orthonormalized on its own.  A product of A with few columns runs far below
BLAS speed, so one product for the batch takes a fraction of the time of
one per seed, although a single seed's A Q goes by row blocks
(matrix.times) and the batch's does not (timings in CHANGES.md, under "A V
by cache-sized row blocks").  als_run is the one-seed batch of
config.seed; with several seeds each block differs from its standalone run
only by rounding, because a wider product sums in another order.

Error tracking (track_errors, one seed only) records ||S T - A||_F after
every half-step, and a tracked run makes one extra pass over A: the first
entry, after the sketch's T-update, is taken directly, by contiguous row
blocks of at most BLOCK_BYTES (matrix.times's budget), never as an m-by-n
array.  Each later entry is the one before it downdated by Pythagoras, at
O((m + n) k^2) cost.  An S-update's residual is R_S = R_T (I - Q Q*), R_T
the residual before it, so it removes R_T Q = A Q - S (T Q); a T-update's is
(I - S S*) R_S, so it removes S* R_S = T - (T Q) Q*, with S and T the new
factors and Q the basis of the S-update before.  With r the entry before and
x the norm removed, the entry is r sqrt((1 - y)(1 + y)), y = min(x / r, 1),
which neither overflows nor underflows where r and x do not.  A downdate
that lands below 1/4 of the last direct entry is replaced by a direct one:
the downdates since a direct entry then cancel at most a factor 4, so each
entry is within 4 (1 + d) times the rounding of one direct residual or
removed norm (a few eps ||A||_F each) of its direct value, d the downdates
since the direct entry.  That rule also catches the half-step that removes
almost all of the residual.  So a tracked run costs about one pass over A
more than an untracked one (timings in CHANGES.md, under "Tracked ALS
reads A once").  Measured against the direct form at delta = 1e-11,
entries were within 0.14 eps ||A||_F.  The untracked iteration does not
change.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io
from .matrix import BLOCK_BYTES, as_matrix, frobenius_norm, gaussian_matrix, orthonormal_basis, times
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
    """Iterate of the ALS loop over the validated matrix ``a``, for one or
    more random starts side by side.

    ``s`` holds one block of rank_k columns per seed, seed b in columns
    b*k:(b+1)*k, and ``t`` the matching blocks of rows.  Each block of ``s``
    has rank_k orthonormal columns, also when rank(A) < rank_k;
    als_update_t relies on this to compute T = S* A.  The error trace is
    kept for a one-seed state only, with the two things its downdates
    read: ``q``, the basis of col(T*) of a tracked S-update, held until the
    T-update after it, and ``direct_error``, the last entry taken directly.
    """

    a: np.ndarray
    config: AlsConfig
    s: np.ndarray
    t: np.ndarray | None = None
    error_trace: list[float] = field(default_factory=list)
    q: np.ndarray | None = None
    direct_error: float = 0.0


def _bases_side_by_side(x, k, adjoint):
    """Orthonormal bases of the blocks of ``k`` columns of ``x`` (of x* if ``adjoint``), side by side.

    Each basis is written into one F-ordered array, the layout the products
    with A take, as soon as it exists, so a batch holds one block's
    temporaries at a time.  For x* that includes the block itself: k rows of
    ``x`` are conjugated at a time, never all of x*.
    """
    out = np.empty(x.shape[::-1] if adjoint else x.shape, x.dtype, order="F")
    for start in range(0, out.shape[1], k):
        cols = slice(start, start + k)
        out[:, cols] = orthonormal_basis(x[cols].conj().T if adjoint else x[:, cols])
    return out


def _residual_norm(a, left, right) -> float:
    """||left @ right - a||_F without an m-by-n temporary.

    The residual is formed by contiguous row blocks of the C-ordered ``a``,
    BLOCK_BYTES each (at least one row), in one reused buffer: the budget
    of matrix.times's row blocks, so it stays in cache.  The result is
    the frobenius_norm of the blocks' frobenius_norms, so it is right at
    every scale where frobenius_norm is.
    """
    m, n = a.shape
    dtype = np.result_type(left, right, a)
    rows = max(1, BLOCK_BYTES // (n * dtype.itemsize))
    buffer = np.empty((min(rows, m), n), dtype)
    norms = []
    for start in range(0, m, rows):
        block = buffer[: min(rows, m - start)]
        np.matmul(left[start : start + rows], right, out=block)
        block -= a[start : start + rows]
        norms.append(frobenius_norm(block))
    return frobenius_norm(norms)


def _track(state: AlsState, removed, left, right) -> None:
    """Append ||left @ right - A||_F, the residual of the half-step just
    taken, to the error trace.

    ``removed`` is the Frobenius norm of what the half-step took out of the
    last entry's residual, or None when the last entry is not the residual
    that the half-step started from.  The new entry is the last one
    downdated by ``removed``; where there is none, or where the downdate
    lands below 1/4 of the last direct entry, it is taken directly, in one
    pass over A.
    """
    if removed is not None:
        last = state.error_trace[-1]
        y = removed / last if removed < last else 1.0
        rest = last * math.sqrt((1.0 - y) * (1.0 + y))
        if 4.0 * rest >= state.direct_error:
            state.error_trace.append(rest)
            return
    state.direct_error = _residual_norm(state.a, left, right)
    state.error_trace.append(state.direct_error)


def _validate(config: AlsConfig, shape) -> None:
    m, n = shape
    if not 1 <= config.rank_k <= min(m, n):
        raise ValueError(f"rank_k={config.rank_k} must lie in [1, {min(m, n)}] for shape {shape}")
    if config.iterations_j < 0:
        raise ValueError("iterations_j must be nonnegative")


def als_init(a, config: AlsConfig, seeds) -> AlsState:
    """Draw the orthonormalized random start S_0 for the validated matrix ``a``.

    ``a`` is used as given: a 2-d float64/complex128 array, as as_matrix
    returns it.  ``seeds`` are the random starts of a batch, one block of S_0
    each; config.seed is not read (als_run's batch is (config.seed,)).  The
    sketch is one product of A with the seeds' Omegas side by side.  A state
    of several seeds does not track errors.

    S_0 spans col(A @ Omega) with Omega an i.i.d. standard-normal n-by-k
    matrix: the classical randomized range sketch.  An ambient Gaussian S_0
    (not passed through A) would make the zero-iteration baseline
    approximation useless, with error near ||A||; sketching through A gives the
    familiar random-projection baseline that the iteration then refines.
    Each seed's block of S_0 has rank_k orthonormal columns, with no rank
    cutoff.  Raises ValueError when a seed is negative or the sketch is
    exactly zero.
    """
    _validate(config, a.shape)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
    if config.track_errors and len(seeds) > 1:
        raise ValueError("error tracking needs a state of one seed")
    fld = "complex" if np.iscomplexobj(a) else "real"
    sketch = times(a, np.hstack([gaussian_matrix(a.shape[1], config.rank_k, seed, fld) for seed in seeds]))
    if not sketch.any():
        raise ValueError("the sketch A @ Omega is zero (rank 0); A is zero to working precision")
    return AlsState(a=a, config=config, s=_bases_side_by_side(sketch, config.rank_k, adjoint=False))


def als_update_t(state: AlsState) -> AlsState:
    """Half-step: T <- argmin ||S T - A||, S fixed; T = S* A as S is orthonormal.

    One product with A for every seed: row block b of T is S_b* A.  The
    tracked residual ||S T - A||_F after a tracked S-update is that
    S-update's entry downdated by ||T - (T Q) Q*||_F, the part of its
    residual in col(S), with the Q it kept (see the module docstring); the
    first T-update takes it directly, in one pass over A by row blocks of at
    most BLOCK_BYTES.
    """
    state.t = None  # the old T is not needed; free it before the product
    state.t = state.s.conj().T @ state.a
    if state.config.track_errors:
        q, state.q = state.q, None
        removed = None if q is None else frobenius_norm(state.t - (state.t @ q) @ q.conj().T)
        _track(state, removed, state.s, state.t)
    return state


def als_update_s(state: AlsState) -> AlsState:
    """Half-step: S <- argmin ||S T - A||, T fixed, returned orthonormalized.

    The minimizer A T^+ has the columns of A Q, Q an orthonormal basis of
    col(T*).  Each seed's Q comes from its own block of T; the blocks side by
    side make one product with A, and each seed's block of A Q is
    orthonormalized on its own.  The tracked residual is that of the
    minimizer, ||A Q Q* - A||_F: the T-update's entry downdated by
    ||A Q - S (T Q)||_F, the part of its residual in col(Q), with S the
    factor before this update (see the module docstring).  Q is kept for
    the T-update's downdate.
    """
    q = _bases_side_by_side(state.t, state.config.rank_k, adjoint=True)
    aq = times(state.a, q)
    if state.config.track_errors:
        removed = None
        if state.q is None and state.error_trace:  # the last entry is ||S T - A||_F
            removed = frobenius_norm(aq - state.s @ (state.t @ q))
        _track(state, removed, aq, q.conj().T)
        state.q = q
    del q  # the batch's Q is not needed by the per-seed bases below
    state.s = _bases_side_by_side(aq, state.config.rank_k, adjoint=False)
    return state


def als_trajectories(a, config: AlsConfig, seeds):
    """Yield, after each T-update i = 0..iterations_j, the list of
    Factorizations (S_i, T_i), one per entry of ``seeds``, in order.

    ``a`` is a validated array, used as given (see als_init).  The seeds run
    as one batch, so each half-step makes one product with A for all of them
    (config.seed is not used).  With one seed, the value at
    i is, bit for bit, als_run with iterations_j = i, so a caller that needs
    several iteration counts of one seed runs the iteration once; with
    several, error tracking is refused and each value differs from the
    seed's standalone run only by rounding.  Each Factorization's
    iterations_j is i and its error trace, when tracked, is the trace so far.
    """
    seeds, k = tuple(seeds), config.rank_k
    blocks = [slice(b * k, (b + 1) * k) for b in range(len(seeds))]
    state = als_init(a, config, seeds)
    for i in range(config.iterations_j + 1):
        if i:
            als_update_s(state)
        als_update_t(state)
        trace = list(state.error_trace) if config.track_errors else None
        yield [
            Factorization(
                s=state.s[:, cols], t=state.t[cols], iterations_j=i, seed=seed, frobenius_error_trace=trace
            )
            for seed, cols in zip(seeds, blocks)
        ]


def als_run(a, config: AlsConfig) -> Factorization:
    """Run exactly ``iterations_j`` S-updates and finish with a T-update.

    The output is (S_j, T_j): T is always optimal for the final S.  With
    iterations_j = 0 this is the pure random-projection baseline (S_0, T_0).
    It is the last value of the one-seed als_trajectories of config.seed,
    run on ``a`` validated by as_matrix.
    """
    for (factorization,) in als_trajectories(as_matrix(a), config, (config.seed,)):
        pass
    return factorization


def approximation_error(a, factorization: Factorization, norm: str = "spectral") -> float:
    """Norm of A - S T, never forming the residual as an m-by-n array.

    The spectral norm is the paper's epsilon: power_method_norm with its
    defaults on A minus S T.  For other iteration counts or start seeds, call
    power_method_norm directly.  The Frobenius norm is computed directly, by
    row blocks of at most BLOCK_BYTES, as the first entry of a tracked
    trace is: one pass over A.
    """
    a = as_matrix(a)
    s, t = as_matrix(factorization.s, "s"), as_matrix(factorization.t, "t")
    if a.shape != (s.shape[0], t.shape[1]):
        raise ValueError(f"factorization shape {(s.shape[0], t.shape[1])} does not match {a.shape}")
    if norm == "frobenius":
        return _residual_norm(a, s, t)
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

    Raises ValueError, naming the directory, when the sidecar is not a JSON
    object with integer (not bool) rank_k, iterations_j >= 0 and seed, when
    its error_trace is neither null nor a list of 2 * iterations_j + 1
    nonnegative numbers that a float64 holds (one per half-step), or when
    the ranks of S, T and the sidecar disagree.  A missing error_trace reads
    as None; other keys of the sidecar are ignored.
    """
    s = io.load_matrix(os.path.join(directory, "s.alsm"))
    t = io.load_matrix(os.path.join(directory, "t.alsm"))
    try:
        with open(os.path.join(directory, "factorization.json")) as f:
            meta = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{directory}: the sidecar is not valid JSON ({exc})") from exc
    keys = ("rank_k", "iterations_j", "seed")
    if not isinstance(meta, dict) or any(type(meta.get(key)) is not int for key in keys):
        raise ValueError(f"{directory}: the sidecar needs integer rank_k, iterations_j and seed")
    if meta["iterations_j"] < 0:
        raise ValueError(f"{directory}: iterations_j={meta['iterations_j']} is negative")
    trace = meta.get("error_trace")
    if trace is not None and not (
        isinstance(trace, list)
        and all(type(x) in (int, float) and 0 <= x <= sys.float_info.max for x in trace)
    ):
        raise ValueError(f"{directory}: error_trace is neither null nor a list of nonnegative finite numbers")
    if trace is not None and len(trace) != 2 * meta["iterations_j"] + 1:
        raise ValueError(f"{directory}: error_trace has {len(trace)} entries, not 2 * iterations_j + 1")
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
        frobenius_error_trace=trace,
    )
