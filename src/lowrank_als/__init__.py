"""Low-rank matrix approximation via alternating least squares from a random start."""

from .als import (
    AlsConfig,
    Factorization,
    als_init,
    als_run,
    als_update_s,
    als_update_t,
    approximation_error,
    load_factorization,
    save_factorization,
)
from .bench import ExperimentRecord, SuiteConfig, run_cell, run_suite
from .io import load_csv, load_matrix, save_csv, save_matrix
from .matrix import (
    DENSE_SVD_BUDGET,
    SvdTriplet,
    adjoint,
    frobenius_norm,
    gaussian_matrix,
    orthonormal_basis,
    small_svd,
)
from .spectral import DEFAULT_POWER_SEED, power_method_norm, residual_operator
from .svd_convert import factorization_to_svd, load_svd_triplet, save_svd_triplet
from .testmat import (
    MemoryBudgetError,
    TestMatrixSpec,
    build_test_matrix,
    dft_matrix,
    real_orthogonal_matrix,
    sigma_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "DEFAULT_POWER_SEED",
    "DENSE_SVD_BUDGET",
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
    "dft_matrix",
    "factorization_to_svd",
    "frobenius_norm",
    "gaussian_matrix",
    "load_csv",
    "load_factorization",
    "load_matrix",
    "load_svd_triplet",
    "orthonormal_basis",
    "power_method_norm",
    "real_orthogonal_matrix",
    "residual_operator",
    "run_cell",
    "run_suite",
    "save_csv",
    "save_factorization",
    "save_matrix",
    "save_svd_triplet",
    "sigma_spectrum",
    "small_svd",
]
