"""Every demo runs to completion against the package in src/, and the
package's public names are unique, importable and exactly the listed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lowrank_als

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The paper's pipeline: build the test matrix, run ALS, measure epsilon,
# convert to an SVD, and save or load the results.
PUBLIC_API = [
    "AlsConfig",
    "DEFAULT_POWER_SEED",
    "ExperimentRecord",
    "Factorization",
    "MemoryBudgetError",
    "SuiteConfig",
    "SvdTriplet",
    "TestMatrixSpec",
    "adjoint",
    "als_init",
    "als_run",
    "als_update_s",
    "als_update_t",
    "approximation_error",
    "build_test_matrix",
    "factorization_to_svd",
    "frobenius_norm",
    "gaussian_matrix",
    "load_factorization",
    "load_matrix",
    "orthonormal_basis",
    "power_method_norm",
    "real_orthogonal_matrix",
    "run_suite",
    "save_factorization",
    "save_matrix",
    "sigma_spectrum",
    "small_svd",
]

# Names that served only tests; the two test oracles live in tests/oracles.py.
REMOVED = [
    "DENSE_SVD_BUDGET",
    "dft_matrix",
    "load_csv",
    "load_svd_triplet",
    "residual_operator",
    "run_cell",
    "save_csv",
    "save_svd_triplet",
]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 4


def test_public_names_unique_and_resolvable():
    names = lowrank_als.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lowrank_als, name)]
    assert not missing


def test_public_api_is_the_pipeline():
    assert sorted(lowrank_als.__all__) == PUBLIC_API
    assert [name for name in REMOVED if hasattr(lowrank_als, name)] == []
