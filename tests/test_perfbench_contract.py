"""The benchmark's tracer binds package functions and their parameters by name.

perfbench/spans.py wraps every public function of the package and reads
arguments such as ``state``, ``op``, ``n_iters`` and ``a`` to count passes
over A.  A rename inside the package would break the benchmark without
failing any other test; this one runs a tiny traced pass and checks the
counts exactly.
"""

import importlib.util
from pathlib import Path

import pytest

from lowrank_als import als, bench, matrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_counts(spans, tmp_path):
    a = matrix.gaussian_matrix(16, 12, seed=0)
    config = bench.SuiteConfig(
        sizes=((32, 64),), rank_deltas=((2, 1e-3),), iteration_counts=(0, 2), seeds=(0,)
    )
    tracer = spans.Tracer()
    tracer.begin_pass()
    try:
        records, summary = bench.run_suite(config)
        fact = als.als_run(a, als.AlsConfig(rank_k=3, iterations_j=1, seed=1, track_errors=True))
        als.save_factorization(tmp_path / "fact", fact)
        als.load_factorization(tmp_path / "fact")
    finally:
        tracer.end_pass(1.0)
    assert len(records) == 2 and not summary["failures"]
    metrics = tracer.layer_metrics()
    # Cells j=0 and j=2 of one seed share one trajectory of 5 half-steps; the
    # tracked run with j=1 takes 3.
    assert metrics["als.half_steps"] == 8
    # One sketch per trajectory and one pass per half-step, plus, by the
    # tracer's counting rule, one more per tracked half-step (the package
    # makes one more per tracked run).
    assert metrics["als.passes_over_a"] == (1 + 5) + (1 + 2 * 3)
    # Both cells of the one matrix share one measurement of 100 power
    # iterations: 2 * 100 + 1 applies of the operator measured, which for
    # this wide DFT matrix is the real 32x32 Sigma in the DFT's coordinates.
    assert metrics["spectral.passes_over_a"] == 201
    assert metrics["spectral.bytes_a"] == 201 * 32 * 32 * 8
    assert metrics["testmat.build_calls"] == 1
    # Header plus payload of S (16x3) and T (3x12).
    assert metrics["io.bytes_written"] == 2 * spans.HEADER_BYTES + (16 * 3 + 3 * 12) * 8


def test_traced_batch_counts(spans):
    # The three seeds of the one matrix run as one batch: each half-step is
    # one product with A for all of them, and one als_init draws the batch's
    # sketch with one product.  Run seed by seed, the same cells took 15
    # half-steps.
    config = bench.SuiteConfig(
        sizes=((32, 64),), rank_deltas=((2, 1e-3),), iteration_counts=(0, 2), seeds=(0, 1, 2)
    )
    tracer = spans.Tracer()
    tracer.begin_pass()
    try:
        records, summary = bench.run_suite(config)
    finally:
        tracer.end_pass(1.0)
    assert len(records) == 6 and not summary["failures"]
    metrics = tracer.layer_metrics()
    assert metrics["als.half_steps"] == 5
    # One sketch product for the batch, one pass per half-step.
    assert metrics["als.passes_over_a"] == 1 + 5
