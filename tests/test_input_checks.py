"""Every argument check raises its own message. Each case here is a check
that the rest of the suite never reaches, so its message is pinned here."""

import dataclasses
import re

import numpy as np
import pytest

from fwdreg import experiment
from fwdreg.core_linalg import (
    Dataset,
    column_moments,
    initial_state,
    least_squares_on_support,
    ortho_extend,
)
from fwdreg.errors import MissingGroundTruth, NonpositiveEigenvalue, RankDeficientSupport
from fwdreg.forward_select import forward_regression, parameter_errors
from fwdreg.simulate import THETA_PATTERNS, SimConfig
from fwdreg.theory_bounds import (
    constant_c1,
    constant_c2,
    exact_eig_source,
    sparse_eig_exact,
    threshold_condition,
    verify_theorem1,
)
from helpers import random_standardized_dataset


def _dataset():
    return random_standardized_dataset(np.random.default_rng(3), 20, 4)


def _extend_twice():
    ds = _dataset()
    state = ortho_extend(initial_state(ds), 0, ds)
    ortho_extend(state, 0, ds)


def _bound_check(missing):
    """verify_theorem1 on a dataset with ground truth and a fit of it
    whose error norms named in ``missing`` are taken out."""
    ds = _dataset()
    fr = forward_regression(ds, 0.05)
    fr = dataclasses.replace(fr, **dict.fromkeys(missing))
    verify_theorem1(fr, ds, 0.05, exact_eig_source(ds.x.T @ ds.x / ds.n))


CASES = {
    "dataset_vector_x": (
        lambda: Dataset(x=np.zeros(3), y=np.zeros(3)),
        ValueError, "x must be a matrix and y a vector"),
    "dataset_rows_disagree": (
        lambda: Dataset(x=np.zeros((3, 2)), y=np.zeros(4)),
        ValueError, "x and y disagree on the number of observations"),
    "dataset_theta0_alone": (
        lambda: Dataset(x=np.zeros((3, 2)), y=np.zeros(3), theta0=np.zeros(2)),
        ValueError, "theta0 and epsilon must be given together"),
    "moments_of_a_vector": (
        lambda: column_moments(np.arange(3.0)),
        ValueError, "expected a 2-d design matrix"),
    "support_over_n": (
        lambda: least_squares_on_support(
            Dataset(x=np.arange(6.0).reshape(2, 3), y=np.ones(2)), [0, 1, 2]),
        RankDeficientSupport, "support size 3 exceeds n=2"),
    "extend_selected_column": (
        _extend_twice, ValueError, "column 0 is already in the support"),
    "extend_column_out_of_range": (
        lambda: ortho_extend(initial_state(_dataset()), 4, _dataset()),
        ValueError, "column index 4 out of range"),
    "parameter_errors_length": (
        lambda: parameter_errors(_dataset(), np.zeros(4), np.zeros(3)),
        ValueError, "theta0 length must match the number of covariates"),
    "sparse_eig_size_0": (
        lambda: sparse_eig_exact(np.eye(3), 0),
        ValueError, "subset size bound s must be >= 1"),
    "c1_zero_threshold": (
        lambda: constant_c1(2, 1, 0.5, 0.1, 0.0),
        ValueError, "threshold t must be positive"),
    "c2_zero_phi": (
        lambda: constant_c2(0.0), NonpositiveEigenvalue, "phi = 0.0"),
    "threshold_condition_zero_phi": (
        lambda: threshold_condition(0.1, 0.0, 0.1), NonpositiveEigenvalue, "phi = 0.0"),
    "threshold_condition_zero_threshold": (
        lambda: threshold_condition(0.0, 0.5, 0.1),
        ValueError, "threshold t must be positive"),
    "theorem1_without_prediction_error": (
        lambda: _bound_check(["pred_error_norm"]),
        MissingGroundTruth, "bound checks need theta0 and the fit's error norms"),
    "theorem3_without_parameter_errors": (
        lambda: _bound_check(["l2_error", "l1_error"]),
        MissingGroundTruth, "bound checks need theta0 and the fit's error norms"),
    "config_theta_pattern": (
        lambda: SimConfig(n=10, p=3, s0=1, theta_pattern="spiky"),
        ValueError, f"theta_pattern must be one of {THETA_PATTERNS}"),
    "config_negative_noise": (
        lambda: SimConfig(n=10, p=3, s0=1, noise_sd=-0.5),
        ValueError, "noise_sd must be >= 0"),
    "verify_no_replications": (
        lambda: experiment.run_verify(SimConfig(n=10, p=3, s0=1), replications=0),
        ValueError, "replications must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
