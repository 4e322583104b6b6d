import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals
from scipy.sparse.linalg import aslinearoperator

from lowrank_als.als import AlsConfig, als_run
from lowrank_als.matrix import gaussian_matrix
from lowrank_als.spectral import DEFAULT_POWER_SEED, power_method_norm

SRC = Path(__file__).resolve().parent.parent / "src"

# Every library path, on tiny inputs: the DFT and real suites, a real build,
# a tracked run, both error norms, the SVD conversion, a save/load round
# trip, the theory checks and the CLI module.
LIBRARY_PATHS = """
import dataclasses, sys, tempfile
import numpy as np
import lowrank_als.cli
from lowrank_als import (AlsConfig, SuiteConfig, TestMatrixSpec, als_run, approximation_error, build_test_matrix,
                         factorization_to_svd, load_factorization, run_suite, save_factorization)
from lowrank_als import verify
config = SuiteConfig(sizes=((16, 24), (24, 16)), rank_deltas=((2, 1e-3),), iteration_counts=(0, 1), seeds=(0, 1))
for transform in ("dft", "real_orthogonal"):
    records, summary = run_suite(dataclasses.replace(config, transform=transform))
    assert len(records) == 8 and not summary["failures"], summary
build_test_matrix(TestMatrixSpec(16, 24, 2, 1e-3, transform="real_orthogonal"))
a = np.random.default_rng(0).standard_normal((12, 9))
fact = als_run(a, AlsConfig(rank_k=2, iterations_j=2, seed=1, track_errors=True))
assert approximation_error(a, fact) > 0 and approximation_error(a, fact, norm="frobenius") > 0
factorization_to_svd(fact.s, fact.t)
with tempfile.TemporaryDirectory() as directory:
    save_factorization(directory, fact)
    assert np.array_equal(load_factorization(directory).s, fact.s)
assert all(result.passed for result in verify.run_all())
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_package_loads_no_scipy():
    # The package runs on numpy alone, so no process pays scipy's import
    # time and memory (scipy.linalg alone is about 0.17 s and 21 MiB);
    # running every path shows a lazy import as well.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LIBRARY_PATHS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "op",
    [
        [[1.0, 0.0], [0.0, 1.0]],
        np.ones(3),
        np.ones((2, 2, 2)),
        scipy.sparse.csr_array(np.eye(2)),
        aslinearoperator(np.eye(2)),
        # On the dense path numpy.ma fails with its own broadcast error.
        np.ma.masked_array(np.ones((5, 4))),
    ],
    ids=["nested_list", "1d", "3d", "csr_array", "linear_operator", "masked_array"],
)
def test_other_operands_rejected(op):
    with pytest.raises(TypeError, match="2-d numpy array or a ColumnDiagonal"):
        power_method_norm(op)


class TestNonFinite:
    """A non-finite operand or pair raises instead of returning nan."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_operand(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            power_method_norm(np.array([[bad, 1.0], [1.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pair(self):
        a = gaussian_matrix(5, 4, seed=61)
        generic = (gaussian_matrix(5, 1, seed=62), gaussian_matrix(1, 4, seed=63))
        nan_pair = (np.full((5, 1), np.nan), gaussian_matrix(1, 4, seed=64))
        power_method_norm(a, minus=[generic])
        with pytest.raises(ValueError, match="non-finite"):
            power_method_norm(a, minus=[generic, nan_pair])


class TestPowerMethodNorm:
    def test_diagonal(self):
        est = power_method_norm(np.diag([3.0, 1.0]), n_iters=100, start=gaussian_matrix(2, 1, 0))
        assert abs(est - 3.0) <= 1e-10

    @pytest.mark.parametrize("n_iters", [1, 2, 100])
    def test_steps_taken(self, n_iters):
        # On diag(1, rho) from (1, 1), n steps leave v parallel to
        # (1, rho^(2n)), so the estimate ||A v|| has a closed form.  At
        # rho = 0.99, one step fewer than 100 moves it by 1.7e-5 relative.
        rho = 0.99
        want = np.sqrt((1 + rho ** (4 * n_iters + 2)) / (1 + rho ** (4 * n_iters)))
        est = power_method_norm(np.diag([1.0, rho]), n_iters=n_iters, start=np.ones(2))
        assert abs(est - want) <= 1e-13 * want

    def test_real_rows_are_divided(self):
        # From e_1 every iterate of diag(49, 1/2) is a multiple of e_1, which
        # a correctly rounded x / ||x|| maps to e_1 exactly; 49 * (1 / 49) is
        # not 1, so a real row multiplied by its reciprocal norm shows in the
        # iterates, though not in the final estimate.
        seen = []

        class Recorded(np.ndarray):
            # Logs the left operand, the iterate block, of every matmul.
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    seen.append(np.array(inputs[0]))
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        op = np.diag([49.0, 0.5]).view(Recorded)
        assert power_method_norm(op, n_iters=3, start=np.array([1.0, 0.0])) == 49.0
        assert len(seen) == 7 and all(np.array_equal(x, [[1.0, 0.0]]) for x in seen)

    def test_identity(self):
        est = power_method_norm(np.eye(5), n_iters=100, start=gaussian_matrix(5, 1, 0))
        assert abs(est - 1.0) <= 1e-12

    def test_random_matches_svd(self):
        a = gaussian_matrix(6, 4, seed=8)
        est = power_method_norm(a, n_iters=100, start=gaussian_matrix(4, 1, 1))
        top = svdvals(a)[0]
        assert abs(est - top) <= 1e-8 * top

    def test_zero_operator(self):
        assert power_method_norm(np.zeros((4, 3)), n_iters=10, start=gaussian_matrix(3, 1, 0)) == 0.0

    def test_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            power_method_norm(np.eye(2), n_iters=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bound(self, seed):
        a = gaussian_matrix(12, 9, seed=300 + seed)
        est = power_method_norm(a, n_iters=30, start=gaussian_matrix(9, 1, seed))
        top = svdvals(a)[0]
        assert est <= top * (1 + 1e-12)

    def test_monotone_in_iterations(self):
        a = gaussian_matrix(10, 7, seed=9)
        lo = power_method_norm(a, n_iters=50, start=gaussian_matrix(7, 1, 2))
        hi = power_method_norm(a, n_iters=200, start=gaussian_matrix(7, 1, 2))
        assert hi >= lo - 1e-12

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 0.9])
    def test_gap_convergence(self, ratio):
        d = np.array([1.0, ratio, ratio / 2, ratio / 4])
        n_iters = 40
        est = power_method_norm(np.diag(d), n_iters=n_iters, start=gaussian_matrix(4, 1, 3))
        assert abs(est - 1.0) <= ratio ** (2 * n_iters) + 1e-10

    def test_degenerate_top_singular_value(self):
        # Multiplicity two at the top: still converges to the norm.
        est = power_method_norm(np.diag([2.0, 2.0, 0.5]), n_iters=100, start=gaussian_matrix(3, 1, 4))
        assert abs(est - 2.0) <= 1e-10

    def test_complex_operator(self):
        a = gaussian_matrix(6, 5, seed=10, field="complex")
        est = power_method_norm(a, n_iters=100, start=gaussian_matrix(5, 1, 5, "complex"))
        top = svdvals(a)[0]
        assert abs(est - top) <= 1e-8 * top

    @settings(deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        field=st.sampled_from(["real", "complex"]),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_equivariant(self, rows, cols, field, exponent, seed):
        # Every iterate is normalized after each apply, so no intermediate
        # vector carries the square of the operator's scale.
        a = gaussian_matrix(rows, cols, seed, field)
        c = 10.0**exponent
        v = gaussian_matrix(cols, 1, seed, field)
        want = power_method_norm(a, n_iters=20, start=v)
        assert abs(power_method_norm(c * a, n_iters=20, start=v) / c - want) <= 1e-10 * want


class TestComplexNormalization:
    """The power method multiplies complex rows by 1 / norm in place of
    dividing them by norm; numpy's complex division by a real d + 0j makes
    exactly that product, so the estimates keep their bits.  A numpy whose
    complex division changes fails here instead of moving every epsilon."""

    @pytest.mark.parametrize("relative_scale", [1e-6, 1.0, 1e6])
    def test_reciprocal_product_equals_quotient(self, relative_scale):
        # Rows of about the size of their norms, as the iterates are, and
        # the guard value 1.0 taken for a zero row.
        norms = np.concatenate([np.logspace(-300, 300, 121), 2.0 ** np.arange(-996, 997, 83), [1.0]])
        x = gaussian_matrix(norms.size, 64, seed=60, field="complex") * (relative_scale * norms[:, None])
        x[:, :2] = [0.0, -0.0]  # a real entry and a signed zero
        quotient = x / norms[:, None]
        assert np.all(np.isfinite(quotient)) and np.all(quotient[:, 2:] != 0.0)
        assert np.array_equal(x * (1.0 / norms[:, None]), quotient)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_subnormal_operator(self, field):
        # Iterates of norm below 2**-1024, whose 1 / norm overflows, are
        # divided instead: the estimates scale with the operator.
        a = gaussian_matrix(6, 4, 1, field)
        pairs = [(gaussian_matrix(6, 2, seed, field), gaussian_matrix(2, 4, seed + 1, field)) for seed in (2, 4)]
        assert power_method_norm(1e-310 * a) == pytest.approx(1e-310 * power_method_norm(a), rel=1e-10, abs=0)
        tiny = [(1e-310 * s, t) for s, t in pairs]
        want = [1e-310 * e for e in power_method_norm(a, minus=pairs)]
        assert power_method_norm(1e-310 * a, minus=tiny) == pytest.approx(want, rel=1e-10, abs=0)

    def test_normal_row_beside_a_subnormal_one(self):
        # Only the row whose 1 / norm overflows is divided: the other row of
        # the block is multiplied, to the bit, as in a block of normal rows.
        # Division rounds differently in some of these instances, not all.
        for seed in range(0, 30, 3):
            a = 1e-310 * gaussian_matrix(6, 4, seed, "complex")
            s, t = gaussian_matrix(6, 2, seed + 1, "complex"), gaussian_matrix(2, 4, seed + 2, "complex")
            mixed = power_method_norm(a, minus=[(1e-310 * s, t), (s, t)])
            assert mixed[1] == power_method_norm(a, minus=[(s, t), (s, t)])[1]
            assert mixed[0] == pytest.approx(power_method_norm(a, minus=[(1e-310 * s, t)])[0], rel=1e-10, abs=0)


class TestStart:
    """power_method_norm(op, start=v): the start vector, validated."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_gaussian_start_equals_default_seed(self, field):
        # The default start is gaussian_matrix(n, 1, DEFAULT_POWER_SEED) in the
        # operator's field; passed explicitly, it gives the same bits.
        a = gaussian_matrix(7, 5, seed=40, field=field)
        pair = (gaussian_matrix(7, 2, seed=42, field=field), gaussian_matrix(2, 5, seed=43, field=field))
        start = gaussian_matrix(5, 1, DEFAULT_POWER_SEED, field)
        assert power_method_norm(a, start=start) == power_method_norm(a)
        assert power_method_norm(a, start=start, minus=[pair]) == power_method_norm(a, minus=[pair])

    def test_vector_and_column_agree(self):
        a = gaussian_matrix(7, 5, seed=44)
        v = gaussian_matrix(5, 1, seed=45)
        assert power_method_norm(a, start=v[:, 0]) == power_method_norm(a, start=v)

    def test_complex_start_on_real_operator(self):
        # The iterates are complex, so their norms count the imaginary parts:
        # from i v they are i times the iterates from v.
        a = gaussian_matrix(7, 5, seed=51)
        v = gaussian_matrix(5, 1, seed=52)
        assert power_method_norm(a, start=1j * v) == pytest.approx(power_method_norm(a, start=v), rel=1e-12)

    def test_start_scale_is_irrelevant(self):
        a = gaussian_matrix(7, 5, seed=46)
        v = gaussian_matrix(5, 1, seed=47)
        assert power_method_norm(a, start=4.0 * v) == power_method_norm(a, start=v)

    @pytest.mark.parametrize("shape", [(4,), (6,), (4, 1), (5, 2), (1, 5)])
    def test_wrong_length_rejected(self, shape):
        with pytest.raises(ValueError, match="does not fit"):
            power_method_norm(gaussian_matrix(7, 5, seed=48), start=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        v = np.ones(5, dtype=type(bad))
        v[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            power_method_norm(gaussian_matrix(7, 5, seed=49), start=v)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            power_method_norm(gaussian_matrix(7, 5, seed=50), start=np.zeros((5, 1)))


class TestSharedMeasurement:
    """power_method_norm(a, minus=pairs): one block iteration for every pair."""

    @settings(deadline=None)
    @given(
        rows=st.integers(2, 40),
        cols=st.integers(2, 40),
        field=st.sampled_from(["real", "complex"]),
        n_pairs=st.integers(1, 4),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_standalone_and_scales(self, rows, cols, field, n_pairs, exponent, seed, data):
        a = gaussian_matrix(rows, cols, seed, field)
        k = data.draw(st.integers(1, min(rows, cols) - 1))
        pairs = []
        for i in range(n_pairs):
            j = data.draw(st.integers(0, 3))
            fact = als_run(a, AlsConfig(rank_k=k, iterations_j=j, seed=seed + i))
            pairs.append((fact.s, fact.t))
        shared = power_method_norm(a, minus=pairs)
        assert len(shared) == n_pairs
        for (s, t), est in zip(pairs, shared):
            want = power_method_norm(a - s @ t)
            assert abs(est - want) <= 1e-10 * want
        c = 10.0**exponent
        scaled = power_method_norm(c * a, minus=[(c * s, t) for s, t in pairs])
        for est, want in zip(scaled, shared):
            assert abs(est / c - want) <= 1e-10 * want

    def test_zero_residual_pair(self):
        # A = S T with one nonzero entry, so S (T v) equals A v exactly and
        # that pair's residual iterate is exactly zero.
        a = np.zeros((5, 4))
        a[0, 0] = 3.0
        e_row = np.zeros((1, 4))
        e_row[0, 0] = 1.0
        exact = (a[:, :1].copy(), e_row)
        generic = (gaussian_matrix(5, 1, seed=11), gaussian_matrix(1, 4, seed=12))
        nothing = (np.zeros((5, 1)), np.zeros((1, 4)))
        without = power_method_norm(a, minus=[generic, nothing])
        with_zero = power_method_norm(a, minus=[generic, exact, nothing])
        assert with_zero[1] == 0.0
        assert with_zero[2] == without[1] == 3.0
        assert abs(with_zero[0] - without[0]) <= 1e-12 * without[0]
        want = power_method_norm(a - generic[0] @ generic[1])
        assert abs(with_zero[0] - want) <= 1e-10 * want

    def test_rows_of_every_scale(self):
        # One block holds a row whose sum of squares overflows (the residual
        # diag(3, 1e300)), an ordinary row and an annihilated one; each row's
        # norm is its own, as in a standalone call.
        a = np.zeros((5, 4))
        a[0, 0] = 3.0
        e_row = np.zeros((1, 4))
        e_row[0, 0] = 1.0
        huge_col, huge_row = np.zeros((5, 1)), np.zeros((1, 4))
        huge_col[1, 0], huge_row[0, 1] = -1e300, 1.0
        pairs = [(np.zeros((5, 1)), np.zeros((1, 4))), (a[:, :1].copy(), e_row), (huge_col, huge_row)]
        ordinary, annihilated, overflowing = power_method_norm(a, minus=pairs)
        assert ordinary == 3.0 and annihilated == 0.0
        assert overflowing == pytest.approx(1e300, rel=1e-14)
        assert overflowing == pytest.approx(power_method_norm(a - huge_col @ huge_row), rel=1e-14)

    def test_mismatched_pair_rejected(self):
        # A one-row S would broadcast into the m-row stack without this check,
        # and every pair of one call shares one width k.
        a = gaussian_matrix(6, 5, seed=14)
        s, t = gaussian_matrix(6, 2, seed=15), gaussian_matrix(2, 5, seed=16)
        mixed_widths = [(s, t), (s[:, :1], t[:1])]
        for bad in [[(s[:1], t)], [(s, t[:, :1])], [(s, t[:1])], [(s[:, 0], t)], mixed_widths]:
            with pytest.raises(ValueError, match="do not fit"):
                power_method_norm(a, minus=bad)

    def test_no_pairs_returns_float(self):
        a = gaussian_matrix(6, 5, seed=13)
        assert isinstance(power_method_norm(a), float)
        assert power_method_norm(a, minus=[(np.zeros((6, 1)), np.zeros((1, 5)))]) == [
            pytest.approx(power_method_norm(a), rel=1e-12)
        ]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_plain_estimate_equals_zero_pair_estimate(self, field):
        # A plain call applies the operator alone; subtracting a zero pair
        # subtracts exact zeros, so the two estimates agree bit for bit.
        m, n = 9, 7
        a = gaussian_matrix(m, n, seed=17, field=field)
        zero_pair = (np.zeros((m, 1)), np.zeros((1, n)))
        assert power_method_norm(a) == power_method_norm(a, minus=[zero_pair])[0]
