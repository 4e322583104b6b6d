"""Every demo runs to completion against the package in src/, the
package's public names are unique, importable and exactly the listed API, and
its defaulted parameters are exactly the listed options."""

import ast
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
    "SuiteConfig",
    "SvdTriplet",
    "TestMatrixSpec",
    "als_run",
    "approximation_error",
    "build_test_matrix",
    "factorization_to_svd",
    "frobenius_norm",
    "gaussian_matrix",
    "load_factorization",
    "load_matrix",
    "power_method_norm",
    "run_suite",
    "save_factorization",
    "save_matrix",
    "sigma_spectrum",
]

# Every (module, function, parameter) in src/lowrank_als with a default.  Each
# has callers that pass two or more values, or a caller that binds it by name;
# a setting with one value in use is a module constant instead.
OPTIONS = [
    ("als", "approximation_error", "norm"),
    ("cli", "main", "argv"),
    ("matrix", "as_matrix", "name"),
    ("matrix", "gaussian_matrix", "field"),
    ("spectral", "power_method_norm", "minus"),
    ("spectral", "power_method_norm", "n_iters"),
    ("spectral", "power_method_norm", "start"),
]

# Names that served only tests, the theory checks or demos; the two test
# oracles live in tests/oracles.py, the ALS steps and orthonormal_basis are
# imported from their modules, the adjoint is numpy's x.conj().T, the square
# real_orthogonal_matrix became a private helper of verify, singular values
# come from np.linalg.svd(..., compute_uv=False), and an over-budget build
# raises a plain ValueError.
REMOVED = [
    "DENSE_SVD_BUDGET",
    "MemoryBudgetError",
    "adjoint",
    "als_init",
    "als_update_s",
    "als_update_t",
    "dft_matrix",
    "load_csv",
    "load_svd_triplet",
    "orthonormal_basis",
    "real_orthogonal_matrix",
    "residual_operator",
    "run_cell",
    "save_csv",
    "save_svd_triplet",
    "small_svd",
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


def defaulted_parameters(path: Path) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter with a default in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            found.extend((path.stem, node.name, arg.arg) for arg in defaulted)
    return found


def test_checker_finds_defaulted_parameters(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(a, b=1, *c, d, e=2):\n    def g(h=3):\n        pass\n")
    assert sorted(defaulted_parameters(path)) == [("mod", "f", "b"), ("mod", "f", "e"), ("mod", "g", "h")]


def test_options_are_the_listed_ones():
    paths = sorted((ROOT / "src" / "lowrank_als").glob("*.py"))
    assert sorted(option for path in paths for option in defaulted_parameters(path)) == OPTIONS
