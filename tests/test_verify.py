"""The verification-only kernels of verify.py: the textbook (never
re-orthonormalized) ALS half-steps that are the reference for the unrolled
recurrence, their least-squares solves, and the orthogonal projector."""

import numpy as np
import pytest

from lowrank_als.matrix import frobenius_norm, gaussian_matrix
from lowrank_als.verify import (
    RankDeficientError,
    _raw_iterates,
    lstsq_solve,
    lstsq_solve_right,
    projector,
)

from oracles import normal_equations_solve, normal_equations_solve_right


class TestRawHalfSteps:
    def test_t_update_exact_when_representable(self):
        s = gaussian_matrix(6, 2, seed=1)
        x = gaussian_matrix(2, 4, seed=2)
        a = s @ x
        t = lstsq_solve(s, a)
        assert frobenius_norm(s @ t - a) <= 1e-12 * frobenius_norm(a)

    def test_t_update_matches_normal_equations(self):
        a = gaussian_matrix(6, 4, seed=3)
        (s0,) = _raw_iterates(a, k=2, iterations=0, seed=3)
        t = lstsq_solve(s0, a)
        want = normal_equations_solve(s0, a)
        assert frobenius_norm(t - want) <= 1e-12 * frobenius_norm(want)

    def test_s_update_with_orthonormal_t_rows(self):
        a = gaussian_matrix(6, 4, seed=4)
        t = np.linalg.qr(gaussian_matrix(4, 2, seed=5))[0].conj().T
        s = lstsq_solve_right(t, a)
        assert np.allclose(s, a @ t.conj().T, atol=1e-12)

    def test_s_update_exact_when_representable(self):
        t = gaussian_matrix(2, 4, seed=6)
        x = gaussian_matrix(6, 2, seed=7)
        a = x @ t
        s = lstsq_solve_right(t, a)
        assert frobenius_norm(s @ t - a) <= 1e-12 * frobenius_norm(a)

    def test_first_s_update_matches_unrolled_formula(self):
        # S_1 = A A* S_0 B_0 with B_0 = (S_0* A A* S_0)^{-1} S_0* S_0.
        a = gaussian_matrix(6, 4, seed=3)
        s0, s1 = _raw_iterates(a, k=2, iterations=1, seed=8)
        aat = a @ a.conj().T
        b0 = np.linalg.solve(s0.conj().T @ aat @ s0, s0.conj().T @ s0)
        want = aat @ s0 @ b0
        assert frobenius_norm(s1 - want) <= 1e-10 * frobenius_norm(want)


class TestLstsq:
    def test_orthonormal_shortcut(self):
        q = np.linalg.qr(gaussian_matrix(6, 2, seed=4))[0]
        a = gaussian_matrix(6, 3, seed=5)
        assert np.allclose(lstsq_solve(q, a), q.conj().T @ a, atol=1e-13)

    def test_mean_of_two(self):
        s = np.array([[1.0], [1.0]])
        a = np.array([[1.0], [3.0]])
        assert np.allclose(lstsq_solve(s, a), [[2.0]])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_normal_equations(self, field):
        s = gaussian_matrix(5, 2, seed=11, field=field)
        a = gaussian_matrix(5, 3, seed=111, field=field)
        t = lstsq_solve(s, a)
        want = normal_equations_solve(s, a)
        assert frobenius_norm(t - want) <= 1e-12 * frobenius_norm(want)

    def test_rank_deficient_raises(self):
        s = np.ones((4, 2))
        with pytest.raises(RankDeficientError, match="rank-deficient least-squares operand"):
            lstsq_solve(s, np.ones((4, 1)))

    def test_rank_deficient_fallback_matches_pinv(self):
        s = np.ones((4, 2))
        a = gaussian_matrix(4, 3, seed=12)
        got = lstsq_solve(s, a, rank_deficient_ok=True)
        want = np.linalg.pinv(s) @ a
        assert np.allclose(got, want, atol=1e-12)


class TestLstsqRight:
    def test_orthonormal_rows(self):
        q = np.linalg.qr(gaussian_matrix(5, 2, seed=6))[0]
        t = q.conj().T
        a = gaussian_matrix(3, 5, seed=7)
        assert np.allclose(lstsq_solve_right(t, a), a @ t.conj().T, atol=1e-13)

    def test_mean_of_two(self):
        t = np.array([[1.0, 1.0]])
        a = np.array([[1.0, 3.0]])
        assert np.allclose(lstsq_solve_right(t, a), [[2.0]])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_normal_equations(self, field):
        t = gaussian_matrix(2, 5, seed=12, field=field)
        a = gaussian_matrix(3, 5, seed=121, field=field)
        s = lstsq_solve_right(t, a)
        want = normal_equations_solve_right(t, a)
        assert frobenius_norm(s - want) <= 1e-12 * frobenius_norm(want)


class TestProjector:
    def test_unit_column(self):
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        assert np.allclose(projector(e1), np.diag([1.0, 0, 0, 0]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_column_space_invariance(self, field):
        m = gaussian_matrix(6, 2, seed=9, field=field)
        c = gaussian_matrix(2, 2, seed=10, field=field)
        assert abs(np.linalg.det(c)) > 1e-6
        assert frobenius_norm(projector(m) - projector(m @ c)) <= 1e-10

    def test_idempotent_self_adjoint(self):
        p = projector(gaussian_matrix(6, 2, seed=9))
        assert frobenius_norm(p @ p - p) <= 1e-12
        assert frobenius_norm(p.conj().T - p) <= 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(projector(np.zeros((3, 2))), np.zeros((3, 3)))
