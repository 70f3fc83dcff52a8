"""Forward regression toolkit: thresholded greedy selection for sparse
linear models, sparse-eigenvalue computation and finite-sample bound
verification."""

from .core_linalg import (
    Dataset,
    OrthoState,
    gram,
    initial_state,
    least_squares_on_support,
    ortho_extend,
    standardize,
)
from .forward_select import (
    FitResult,
    SelectionStep,
    forward_regression,
    parameter_errors,
    score_all,
)
from .simulate import SimConfig, oracle_threshold, simulate_dataset
from .theory_bounds import (
    BoundReport,
    SparseEigReport,
    constant_c1,
    constant_c2,
    sparse_eig_exact,
    sparse_eig_sampled,
    threshold_condition,
    verify_theorem1,
)

__all__ = [
    "Dataset",
    "OrthoState",
    "FitResult",
    "SelectionStep",
    "SimConfig",
    "BoundReport",
    "SparseEigReport",
    "standardize",
    "gram",
    "least_squares_on_support",
    "initial_state",
    "ortho_extend",
    "score_all",
    "forward_regression",
    "parameter_errors",
    "simulate_dataset",
    "oracle_threshold",
    "sparse_eig_exact",
    "sparse_eig_sampled",
    "constant_c1",
    "constant_c2",
    "threshold_condition",
    "verify_theorem1",
]

__version__ = "0.1.0"
