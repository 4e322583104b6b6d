"""Scaling A by a power of 2 moves no bit of an output.

Multiplying by c = 2^p is exact, and it commutes with every rounded sum,
product and quotient while the results stay in the normal range;
frobenius_norm's retry divides by a power of 2 too.  So S keeps its bits,
and T, the error trace, both approximation_error norms, power_method_norm
and frobenius_norm are c times theirs, bit for bit.  The exponent range is
fixed by a rule, not by measurement: every nonzero real or imaginary part x
of A has 2^-511 <= 2^p |x| < 2^512, so every entry of 2^p A is normal and so
is its square.  Sums of squares may still overflow or fall
below matrix._SQUARES_MIN there; those are retried, and the retry is the
path under test.  Multi-pair power_method_norm lists are exact only while
every row's batched sum stays in range (see matrix.row_norms), so they are
not tested here; neither is factorization_to_svd, whose LAPACK SVD rescales
by factors that are not powers of 2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_als.als import AlsConfig, als_run, approximation_error
from lowrank_als.matrix import frobenius_norm, gaussian_matrix
from lowrank_als.spectral import power_method_norm


def exact_exponents(a):
    """The p of the rule: 2^-511 <= 2^p |x| < 2^512 for every nonzero part x of ``a``."""
    parts = np.abs(np.ascontiguousarray(a).view(np.float64))
    smallest, largest = parts[parts > 0].min(), parts.max()
    # x lies in [2^(e-1), 2^e) for e = frexp(x)[1].
    return -510 - math.frexp(smallest)[1], 512 - math.frexp(largest)[1]


def assert_scaled(a, p, k, j, seed):
    c = 2.0**p
    b = c * a
    assert np.array_equal(b / c, a)  # 2^p A is exact
    config = AlsConfig(rank_k=k, iterations_j=j, seed=seed, track_errors=True)
    fact, scaled = als_run(a, config), als_run(b, config)
    assert np.array_equal(scaled.s, fact.s)
    assert np.array_equal(scaled.t, c * fact.t)
    assert scaled.frobenius_error_trace == [c * e for e in fact.frobenius_error_trace]
    assert frobenius_norm(b) == c * frobenius_norm(a)
    for norm in ("spectral", "frobenius"):
        assert approximation_error(b, scaled, norm) == c * approximation_error(a, fact, norm)
    assert power_method_norm(b) == c * power_method_norm(a)
    pair = power_method_norm(a, minus=[(fact.s, fact.t)])
    assert power_method_norm(b, minus=[(scaled.s, scaled.t)]) == [c * e for e in pair]


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    field=st.sampled_from(["real", "complex"]),
    j=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_power_of_two_scaling(rows, cols, field, j, seed, data):
    a = gaussian_matrix(rows, cols, seed, field)
    k = data.draw(st.integers(1, min(rows, cols)), label="k")
    lo, hi = exact_exponents(a)
    # The ends, where sums of squares are retried, and anything between.
    p = data.draw(st.sampled_from([lo, hi]) | st.integers(lo, hi), label="p")
    assert_scaled(a, p, k, j, seed)


class TestPinned:
    """Cases the hypothesis test only samples, each beyond |p| = 480, where
    a retry that divided by the largest magnitude moved the last bits."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [600, -600])
    def test_norms_of_a_small_matrix(self, field, p):
        # At 2^600 every square overflows; at 2^-600 the sum lies below 2^-960.
        a = gaussian_matrix(7, 5, 0, field)
        c = 2.0**p
        assert frobenius_norm(c * a) == c * frobenius_norm(a)
        assert power_method_norm(c * a) == c * power_method_norm(a)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_tracked_trace(self, field):
        a = gaussian_matrix(60, 40, 1, field)
        config = AlsConfig(rank_k=4, iterations_j=2, seed=2, track_errors=True)
        c = 2.0**-500
        want = [c * e for e in als_run(a, config).frobenius_error_trace]
        assert als_run(c * a, config).frobenius_error_trace == want

    def test_complex_spectral_error(self):
        a = gaussian_matrix(60, 40, 1, "complex")
        config = AlsConfig(rank_k=4, iterations_j=2, seed=2)
        c = 2.0**-500
        want = c * approximation_error(a, als_run(a, config))
        assert approximation_error(c * a, als_run(c * a, config)) == want
