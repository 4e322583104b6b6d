import csv
import dataclasses
import itertools
import json
import types

import numpy as np
import pytest
from scipy.linalg import svdvals

from lowrank_als.als import AlsConfig, als_run
from lowrank_als.bench import (
    CSV_HEADER,
    ExperimentRecord,
    SuiteConfig,
    run_suite,
    summarize,
    write_csv,
    write_json,
)
from lowrank_als.spectral import power_method_norm
from lowrank_als.testmat import TestMatrixSpec, build_test_matrix

from oracles import ROUNDING_ALLOWANCE, residual_norm

SMALL_SPEC = TestMatrixSpec(32, 64, 2, 1e-3)

SMALL_SUITE = SuiteConfig(
    sizes=((32, 64),),
    rank_deltas=((2, 1e-3),),
    iteration_counts=(0, 2),
    seeds=(0, 1),
)


def run_one_cell(spec: TestMatrixSpec, j: int, seed: int) -> ExperimentRecord:
    """The record of the one-cell suite (spec, j, seed)."""
    config = SuiteConfig(
        sizes=((spec.m, spec.n),),
        rank_deltas=((spec.k, spec.delta),),
        iteration_counts=(j,),
        seeds=(seed,),
        transform=spec.transform,
    )
    records, summary = run_suite(config)
    assert not summary["failures"], summary["failures"]
    (rec,) = records
    return rec


class TestRunCell:
    def test_record_fields(self):
        rec = run_one_cell(SMALL_SPEC, j=2, seed=0)
        assert (rec.m, rec.n, rec.k) == (32, 64, 2)
        assert rec.transform == "dft"
        assert rec.j == 2 and rec.seed == 0
        assert rec.t_seconds > 0

    def test_near_optimal_after_two_iterations(self):
        rec = run_one_cell(SMALL_SPEC, j=2, seed=0)
        # Power-method epsilon is a lower bound on the true error, which in
        # turn is at least delta; the undershoot stays under a percent.
        assert 0.99 * rec.delta <= rec.epsilon <= 1.25 * rec.delta

    def test_matrix_reuse_matches_fresh_build(self):
        # run_suite shares one build among the cells of a matrix; builds of
        # one spec are identical.
        assert np.array_equal(build_test_matrix(SMALL_SPEC), build_test_matrix(SMALL_SPEC))


class TestRunSuite:
    def test_counts_and_determinism(self):
        records1, summary1 = run_suite(SMALL_SUITE)
        records2, _ = run_suite(SMALL_SUITE)
        assert len(records1) == 1 * 1 * 2 * 2
        assert summary1["n_records"] == 4
        assert [r.epsilon for r in records1] == [r.epsilon for r in records2]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            run_suite(SuiteConfig(seeds=()))

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            run_suite(SuiteConfig(sizes=()))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(sizes=((4, 4),), rank_deltas=((10, 1e-3),)))

    def test_partial_failure_keeps_suite_running(self, monkeypatch):
        import lowrank_als.bench as bench

        real_build = bench.build_test_matrix

        def flaky(spec):
            if spec.m == 48:
                raise RuntimeError("boom")
            return real_build(spec)

        monkeypatch.setattr(bench, "build_test_matrix", flaky)
        config = SuiteConfig(
            sizes=((48, 64), (32, 64)),
            rank_deltas=((2, 1e-3),),
            iteration_counts=(0,),
            seeds=(0,),
        )
        records, summary = run_suite(config)
        assert len(records) == 1
        assert len(summary["failures"]) == 1
        assert "boom" in summary["failures"][0]["error"]

    def test_shared_measurement_matches_cells(self):
        records, _ = run_suite(SMALL_SUITE)
        for rec in records:
            want = run_one_cell(SMALL_SPEC, j=rec.j, seed=rec.seed).epsilon
            assert abs(rec.epsilon - want) <= 1e-12 * want

    def test_failed_half_step_fails_its_matrix(self, monkeypatch):
        import lowrank_als.als as als

        real_update_s = als.als_update_s

        def flaky(state):
            if state.a.shape[0] == 48:
                raise RuntimeError("boom")
            return real_update_s(state)

        monkeypatch.setattr(als, "als_update_s", flaky)
        records, summary = run_suite(dataclasses.replace(SMALL_SUITE, sizes=((48, 64), (32, 64))))
        assert summary["failures"] == [{"spec": dataclasses.asdict(dataclasses.replace(SMALL_SPEC, m=48)), "error": "boom"}]
        assert [(r.m, r.j, r.seed) for r in records] == [(32, 0, 0), (32, 0, 1), (32, 2, 0), (32, 2, 1)]
        monkeypatch.undo()
        for rec in records:
            want = run_one_cell(SMALL_SPEC, j=rec.j, seed=rec.seed).epsilon
            assert abs(rec.epsilon - want) <= 1e-12 * want

    def test_cells_of_a_seed_share_one_trajectory(self, monkeypatch):
        import lowrank_als.bench as bench

        runs = []

        def counted(a, config, seeds):
            runs.append((config.iterations_j, seeds))
            return real_trajectories(a, config, seeds)

        real_trajectories = bench.als_trajectories
        monkeypatch.setattr(bench, "als_trajectories", counted)
        records, _ = run_suite(dataclasses.replace(SMALL_SUITE, iteration_counts=(2, 0, 1)))
        assert runs == [(2, (0, 1))]
        times = {}
        for seed in (0, 1):
            times[seed] = [r.t_seconds for j in (0, 1, 2) for r in records if (r.j, r.seed) == (j, seed)]
            assert 0 < times[seed][0] < times[seed][1] < times[seed][2]
        # A cell's t_seconds is its share of the batch's time.
        assert times[0] == times[1]

    def test_negative_iteration_count_rejected(self):
        with pytest.raises(ValueError, match="iteration_counts"):
            run_suite(dataclasses.replace(SMALL_SUITE, iteration_counts=(0, -1)))

    @pytest.mark.parametrize(
        "field, values",
        [
            ("seeds", (0, -1)),
            ("seeds", (1, 1)),
            ("iteration_counts", (2, 0, 2)),
            ("sizes", ((32, 64), (32, 64))),
            ("rank_deltas", ((2, 1e-3), (2, 1e-3))),
        ],
        ids=["negative_seed", "repeated_seed", "repeated_j", "repeated_size", "repeated_rank_delta"],
    )
    def test_bad_grid_rejected_before_any_build(self, field, values, monkeypatch):
        import lowrank_als.bench as bench

        monkeypatch.setattr(bench, "build_test_matrix", lambda spec: pytest.fail("built a matrix"))
        with pytest.raises(ValueError, match=field):
            run_suite(dataclasses.replace(SMALL_SUITE, **{field: values}))

    def test_failed_measurement_fails_its_matrix(self, monkeypatch):
        import lowrank_als.bench as bench

        def broken(*args, **kwargs):
            raise RuntimeError("no measurement")

        monkeypatch.setattr(bench, "power_method_norm", broken)
        records, summary = run_suite(SMALL_SUITE)
        assert records == []
        assert summary["failures"] == [{"spec": dataclasses.asdict(SMALL_SPEC), "error": "no measurement"}]

    def test_summary_ratios(self):
        records, summary = run_suite(SMALL_SUITE)
        ratios = summary["max_epsilon_over_delta_by_j"]
        assert set(ratios) == {"0", "2"}
        assert ratios["2"] < ratios["0"]

    def test_summary_keeps_the_largest_ratio(self):
        first = ExperimentRecord(32, 64, "dft", 2, 1e-3, 2, 0, 3e-3, 0.01)
        later = dataclasses.replace(first, seed=1, epsilon=1.5e-3)
        summary = summarize([first, later], [])
        assert summary["max_epsilon_over_delta_by_j"] == {"2": 3e-3 / 1e-3}
        assert summary["n_records"] == 2

    def test_t_seconds_is_the_batch_time_per_seed(self, monkeypatch):
        import lowrank_als.bench as bench

        # A clock that advances one second per reading: _run_matrix reads it
        # once before the batch and once after each step, so step j of the
        # batch ends j + 1 seconds in, shared by the three seeds.
        clock = itertools.count()
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: float(next(clock))))
        records, _ = run_suite(dataclasses.replace(SMALL_SUITE, iteration_counts=(0, 1, 2), seeds=(0, 1, 2)))
        assert len(records) == 9
        assert {(r.j, r.t_seconds) for r in records} == {(j, (j + 1) / 3) for j in (0, 1, 2)}


OPERATOR_SUITE = SuiteConfig(
    sizes=((512, 1024),),
    rank_deltas=((2, 1e-3), (10, 1e-3), (2, 1e-11), (10, 1e-11)),
    iteration_counts=(0, 2, 10),
    seeds=(0,),
)


@pytest.fixture(scope="module")
def operator_runs():
    """(spec, dense A, records, factorizations) per test matrix of OPERATOR_SUITE."""
    records, summary = run_suite(OPERATOR_SUITE)
    assert not summary["failures"]
    runs = []
    for k, delta in OPERATOR_SUITE.rank_deltas:
        spec = TestMatrixSpec(512, 1024, k, delta)
        recs = [r for r in records if (r.k, r.delta) == (k, delta)]
        a = build_test_matrix(spec)
        facts = [als_run(a, AlsConfig(rank_k=k, iterations_j=r.j, seed=r.seed)) for r in recs]
        runs.append((spec, a, recs, facts))
    return runs


@pytest.fixture(scope="module")
def operator_cells(operator_runs):
    """(record, dense-A epsilon, dense-SVD truth) per cell of OPERATOR_SUITE."""
    cells = []
    for _, a, recs, facts in operator_runs:
        dense = power_method_norm(a, minus=[(f.s, f.t) for f in facts])
        truths = [svdvals(a - f.s @ f.t)[0] for f in facts]
        cells.extend(zip(recs, dense, truths))
    return cells


@pytest.fixture(scope="module")
def exact_cells(operator_runs, operator_cells):
    """(record, dense-SVD truth, exact reduced residual norm) per cell of OPERATOR_SUITE."""
    exact = [residual_norm(spec, f.s) for spec, _, _, facts in operator_runs for f in facts]
    return [(rec, truth, x) for (rec, _, truth), x in zip(operator_cells, exact)]


TALL_SUITE = SuiteConfig(
    sizes=((96, 48),),
    rank_deltas=((2, 1e-3), (10, 1e-3), (2, 1e-11), (10, 1e-11)),
    iteration_counts=(0, 2, 10),
    seeds=(0, 1),
)


@pytest.fixture(scope="module")
def tall_exact_cells():
    """(record, dense-SVD truth, exact reduced residual norm) per cell of TALL_SUITE."""
    records, summary = run_suite(TALL_SUITE)
    assert not summary["failures"]
    cells = []
    for k, delta in TALL_SUITE.rank_deltas:
        spec = TestMatrixSpec(96, 48, k, delta)
        a = build_test_matrix(spec)
        for rec in (r for r in records if (r.k, r.delta) == (k, delta)):
            f = als_run(a, AlsConfig(rank_k=k, iterations_j=rec.j, seed=rec.seed))
            truth = svdvals(a - f.s @ (f.s.conj().T @ a))[0]
            cells.append((rec, truth, residual_norm(spec, f.s)))
    return cells


class TestOperatorMeasurement:
    def test_matches_dense_measurement(self, operator_cells):
        for rec, dense, _ in operator_cells:
            tol = 1e-12 if rec.delta == 1e-3 else 1e-5
            assert abs(rec.epsilon - dense) <= tol * dense

    def test_at_most_dense_svd_truth(self, operator_cells):
        for rec, _, truth in operator_cells:
            assert rec.epsilon <= truth + ROUNDING_ALLOWANCE

    def test_truth_near_optimal_from_two_iterations(self, operator_cells):
        assert sum(rec.j >= 2 for rec, _, _ in operator_cells) == 8
        for rec, _, truth in operator_cells:
            if rec.j >= 2:
                assert truth / rec.delta <= 1.05


class TestExactYardstick:
    """sigma_max(Sigma_r - W W[:r]^H Sigma), the residual's exact norm in the DFT's coordinates."""

    def test_matches_dense_svd_truth(self, exact_cells):
        for _, truth, exact in exact_cells:
            assert abs(exact - truth) <= ROUNDING_ALLOWANCE

    def test_near_optimal_from_two_iterations(self, exact_cells):
        # The paper's claim without the power method's bias.
        assert sum(rec.j >= 2 for rec, _, _ in exact_cells) == 8
        for rec, _, exact in exact_cells:
            if rec.j >= 2:
                assert exact / rec.delta <= 1.05

    def test_estimate_at_most_exact(self, exact_cells):
        for rec, _, exact in exact_cells:
            assert rec.epsilon <= exact + ROUNDING_ALLOWANCE

    def test_tall_matches_dense_svd_truth(self, tall_exact_cells):
        # sigma_max([Sigma; 0] - W W[:r]^H Sigma), the m-by-r form for m > n.
        for _, truth, exact in tall_exact_cells:
            assert abs(exact - truth) <= ROUNDING_ALLOWANCE

    def test_tall_near_optimal_from_two_iterations(self, tall_exact_cells):
        assert sum(rec.j >= 2 for rec, _, _ in tall_exact_cells) == 16
        for rec, _, exact in tall_exact_cells:
            if rec.j >= 2:
                assert exact / rec.delta <= 1.05

    def test_tall_estimate_at_most_exact(self, tall_exact_cells):
        for rec, _, exact in tall_exact_cells:
            assert rec.epsilon <= exact + ROUNDING_ALLOWANCE


class TestMeasurementPath:
    """A test matrix of either transform and any shape is measured in its own coordinates."""

    @pytest.mark.parametrize(
        "transform, size",
        [
            ("dft", (96, 96)),
            ("dft", (96, 48)),
            ("dft", (48, 96)),
            ("real_orthogonal", (48, 96)),
            ("real_orthogonal", (96, 96)),
            ("real_orthogonal", (96, 48)),
        ],
        ids=["square", "tall", "wide", "real_orthogonal-wide", "real_orthogonal-square", "real_orthogonal-tall"],
    )
    def test_matches_dense_measurement(self, monkeypatch, transform, size):
        import lowrank_als.bench as bench

        calls = []
        real = bench.residual_coordinates

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(bench, "residual_coordinates", counted)
        config = SuiteConfig(
            sizes=(size,),
            rank_deltas=((2, 1e-3), (2, 1e-11)),
            iteration_counts=(0, 2),
            seeds=(0, 1),
            transform=transform,
        )
        records, summary = run_suite(config)
        assert not summary["failures"] and len(records) == 8
        assert [(spec.m, spec.n, spec.transform) for spec in calls] == [(*size, transform)] * 2
        for k, delta in config.rank_deltas:
            recs = [r for r in records if r.delta == delta]
            a = build_test_matrix(TestMatrixSpec(*size, k, delta, transform=transform))
            facts = [als_run(a, AlsConfig(rank_k=k, iterations_j=r.j, seed=r.seed)) for r in recs]
            dense = power_method_norm(a, minus=[(f.s, f.t) for f in facts])
            # Both measurements follow the same iterates, and the dense A is
            # the rounding of F Sigma G, a few eps * ||A|| away.  An epsilon
            # is at least about delta, so the relative tolerance is
            # 32 eps ||A|| / delta (||A|| = 1): 7e-12 at delta = 1e-3 and
            # 7e-4 at delta = 1e-11.
            tol = ROUNDING_ALLOWANCE / delta
            for rec, want in zip(recs, dense):
                assert abs(rec.epsilon - want) <= tol * want


@pytest.fixture(scope="module")
def real_cells():
    """(record, dense-A epsilon, dense-SVD truth, exact reduced residual norm)
    per cell of OPERATOR_SUITE with real_orthogonal test matrices."""
    config = dataclasses.replace(OPERATOR_SUITE, transform="real_orthogonal")
    records, summary = run_suite(config)
    assert not summary["failures"]
    cells = []
    for k, delta in config.rank_deltas:
        spec = TestMatrixSpec(512, 1024, k, delta, transform="real_orthogonal")
        recs = [r for r in records if (r.k, r.delta) == (k, delta)]
        a = build_test_matrix(spec)
        facts = [als_run(a, AlsConfig(rank_k=k, iterations_j=r.j, seed=r.seed)) for r in recs]
        dense = power_method_norm(a, minus=[(f.s, f.t) for f in facts])
        for rec, want, f in zip(recs, dense, facts):
            cells.append((rec, want, svdvals(a - f.s @ f.t)[0], residual_norm(spec, f.s)))
    return cells


class TestRealOrthogonalMeasurement:
    """real_orthogonal cells, measured in the coordinates of the complete F.

    No near-optimality gate: a real j = 2 cell can sit above 1.05 delta, a
    property of the method without oversampling, not of the measurement.  At
    k = 10, delta = 1e-3, 3 of 1000 cells at 512x1024 (ALS seeds 0-999) and
    5 of 2000 at 128x256 (seeds 0-1999) do, up to 1.18 and 1.27 delta, by
    run_suite on the Hartley-built real family.
    """

    def test_matches_dense_measurement(self, real_cells):
        assert len(real_cells) == 12
        for rec, dense, _, _ in real_cells:
            assert abs(rec.epsilon - dense) <= ROUNDING_ALLOWANCE / rec.delta * dense

    def test_exact_matches_dense_svd_truth(self, real_cells):
        for _, _, truth, exact in real_cells:
            assert abs(exact - truth) <= ROUNDING_ALLOWANCE

    def test_estimate_at_most_truth(self, real_cells):
        for rec, _, truth, _ in real_cells:
            assert rec.epsilon <= truth + ROUNDING_ALLOWANCE


class TestOutputFormats:
    def _records(self):
        return [
            ExperimentRecord(32, 64, "dft", 2, 1e-3, 1, 0, 1.05e-3, 0.01),
            ExperimentRecord(32, 64, "dft", 2, 1e-3, 2, 0, 1.00e-3, 0.02),
        ]

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, self._records())
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0] == CSV_HEADER == "m,n,transform,k,delta,j,seed,epsilon,t_seconds"
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2
        assert rows[0]["transform"] == "dft"
        assert float(rows[0]["epsilon"]) == 1.05e-3

    def test_csv_round_trips_floats(self, tmp_path):
        # No default-grid delta tells a rounded float from an exact one.
        rec = dataclasses.replace(self._records()[0], delta=1 / 3, epsilon=2 / 3)
        path = tmp_path / "out.csv"
        write_csv(path, [rec])
        with open(path) as f:
            (row,) = csv.DictReader(f)
        assert (float(row["delta"]), float(row["epsilon"])) == (1 / 3, 2 / 3)

    def test_json_mirrors_csv(self, tmp_path):
        path = tmp_path / "out.json"
        records = self._records()
        write_json(path, records, summarize(records, []))
        payload = json.loads(path.read_text())
        assert len(payload["records"]) == 2
        assert payload["records"][0] == dataclasses.asdict(records[0])
        assert "max_epsilon_over_delta_by_j" in payload["summary"]
