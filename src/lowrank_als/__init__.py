"""Low-rank matrix approximation via alternating least squares from a random start."""

from .als import (
    AlsConfig,
    Factorization,
    als_run,
    approximation_error,
    load_factorization,
    save_factorization,
)
from .bench import ExperimentRecord, SuiteConfig, run_suite
from .io import load_matrix, save_matrix
from .matrix import SvdTriplet, frobenius_norm, gaussian_matrix, small_svd
from .spectral import DEFAULT_POWER_SEED, power_method_norm
from .svd_convert import factorization_to_svd
from .testmat import (
    MemoryBudgetError,
    TestMatrixSpec,
    build_test_matrix,
    sigma_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "DEFAULT_POWER_SEED",
    "ExperimentRecord",
    "Factorization",
    "MemoryBudgetError",
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
    "small_svd",
]
