"""Sparse linear-model data generation with known ground truth.

Rows are Gaussian with a chosen covariance family; after standardization
the stored coefficients and disturbances are re-expressed so that
y = X theta0 + epsilon holds exactly in standardized coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core_linalg import Dataset, standardize
from .errors import NonpositiveEigenvalue, NumericOverflow
from .theory_bounds import noise_covariate_sup

DESIGNS = ("independent", "equicorrelated", "toeplitz")
THETA_PATTERNS = ("constant", "decaying", "signed_alternating")

# Smallest admissible threshold; requested t = 0 is floored here.
THRESHOLD_FLOOR = 1e-12


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    s0: int
    design: str = "independent"
    rho: float = 0.0
    theta_pattern: str = "constant"
    c: float = 1.0
    rate: float = 1.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # bool is an Integral, but a JSON true is never a meant count or seed
        for name in ("n", "p", "s0", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("rho", "c", "rate", "noise_sd"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not 0 <= self.s0 <= self.p:
            raise ValueError("need 0 <= s0 <= p")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be < 1")
        # the equicorrelation matrix has eigenvalue 1 + (p - 1) rho
        if (self.design == "equicorrelated" and self.p > 1
                and not self.rho > -1 / (self.p - 1)):
            raise ValueError(f"an equicorrelated design needs rho > -1/(p - 1) = "
                             f"{-1 / (self.p - 1)!r} at p = {self.p}, got {self.rho!r}")
        if self.theta_pattern not in THETA_PATTERNS:
            raise ValueError(f"theta_pattern must be one of {THETA_PATTERNS}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _ar1_columns(z: np.ndarray, rho: float) -> None:
    """Overwrite the columns of ``z`` by x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j.

    This is ``z @ L.T`` for the lower Cholesky factor L of the Toeplitz
    matrix rho^|j-k|, computed in O(np) without a BLAS product."""
    z[:, 1:] *= math.sqrt(1.0 - rho * rho)
    for j in range(1, z.shape[1]):
        z[:, j] += rho * z[:, j - 1]


def _equicorrelated_columns(z: np.ndarray, rho: float) -> None:
    """Overwrite the columns of ``z`` by x_j = d_j z_j + sum_{k<j} c_k z_k.

    This is ``z @ L.T`` for the lower Cholesky factor L of the matrix with
    unit diagonal and rho elsewhere: every entry of column k below the
    diagonal is c_k = rho sqrt((1 - rho) / ((1 + (k-1) rho)(1 + k rho))),
    and d_j^2 = (1 - rho)(1 + j rho) / (1 + (j-1) rho). The sum runs over
    columns, O(np) without a BLAS product."""
    j = np.arange(z.shape[1])
    before, after = 1.0 + (j - 1.0) * rho, 1.0 + j * rho
    d = np.sqrt((1.0 - rho) * after / before)
    c = rho * np.sqrt((1.0 - rho) / (before * after))
    run = np.zeros(z.shape[0])
    for k in j:
        col = z[:, k]
        step = c[k] * col
        col *= d[k]
        col += run
        run += step


def _theta_values(cfg: SimConfig) -> np.ndarray:
    k = np.arange(cfg.s0)
    if cfg.theta_pattern == "constant":
        return np.full(cfg.s0, cfg.c)
    if cfg.theta_pattern == "decaying":
        return cfg.c * (k + 1.0) ** -cfg.rate
    return cfg.c * (-1.0) ** k


def _standardized_model(x: np.ndarray, theta0: np.ndarray, epsilon: np.ndarray) -> Dataset:
    """Standardize ``x`` in place, multiply ``theta0``, the coefficients of
    its columns as given, in place by the scale removed, and return the
    dataset with y = x theta0 + epsilon exactly as stored."""
    _mean, scale = standardize(x)
    theta0 *= scale
    return Dataset(x=x, y=x @ theta0 + epsilon, theta0=theta0, epsilon=epsilon)


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Draw one dataset; fully deterministic under (cfg, cfg.seed).

    The true support is a seeded random subset of the columns (not the
    leading ones, to avoid accidental alignment with index tie-breaking).
    Raises NumericOverflow when a stored y overflows float64.
    """
    rng = np.random.default_rng(cfg.seed)
    # the draw is correlated and then standardized in place
    x = rng.standard_normal((cfg.n, cfg.p))
    if cfg.rho != 0.0 and cfg.design == "toeplitz":
        _ar1_columns(x, cfg.rho)
    elif cfg.rho != 0.0 and cfg.design == "equicorrelated":
        _equicorrelated_columns(x, cfg.rho)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        epsilon = cfg.noise_sd * rng.standard_normal(cfg.n)
        support = np.sort(rng.choice(cfg.p, size=cfg.s0, replace=False))
        theta0 = np.zeros(cfg.p)
        theta0[support] = _theta_values(cfg)
        ds = _standardized_model(x, theta0, epsilon)
    if not np.isfinite(ds.y).all():
        raise NumericOverflow("the simulated response y overflows float64; "
                              "lower c or noise_sd")
    return ds


def nested_samples(cfg: SimConfig, sizes: Sequence[int]) -> Iterator[Dataset]:
    """Draw ``simulate_dataset(cfg)`` and yield, for each n in ``sizes``
    from the largest down, its first n observations standardized on their
    own; the model is the one a plain simulation of the first n raw rows
    would store (to rounding), and y = X theta0 + epsilon holds exactly as
    stored. An n equal to cfg.n yields the draw itself.

    Every smaller n standardizes the leading rows of the one design in
    place, through the view ``x[:n]``, and the scale it removes carries
    theta0 forward, so no rows are copied. A yielded dataset is therefore
    valid only until the next one is asked for.
    """
    sizes = list(sizes)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be nonempty and increasing, got {sizes}")
    for n in (sizes[0], sizes[-1]):
        if not 2 <= n <= cfg.n:
            raise ValueError(f"need 2 <= n <= {cfg.n} leading rows, got {n}")
    ds = simulate_dataset(cfg)
    for n in reversed(sizes):
        if n < ds.n:
            ds = _standardized_model(ds.x[:n], ds.theta0, ds.epsilon[:n])
        yield ds


def oracle_threshold(ds: Dataset, phi: float, safety: float = 1.0) -> float:
    """Smallest threshold (scaled by safety^2) meeting the regularization
    condition sqrt(t) >= 2 * ||E_n[x_i eps_i]||_inf / phi.

    Uses the true disturbances, available only in simulation; this
    deliberately isolates bound verification from feasible threshold
    selection. A degenerate t below THRESHOLD_FLOOR is floored, and a t
    that overflows float64 raises NumericOverflow.
    """
    noise_sup = noise_covariate_sup(ds)
    if phi <= 0:
        raise NonpositiveEigenvalue(
            f"minimum sparse eigenvalue phi = {phi} is not positive, so no "
            f"threshold meets the regularization premise (n = {ds.n}; phi is 0 "
            f"at every subset size >= n)"
        )
    if not (math.isfinite(safety) and safety >= 1):
        raise ValueError(f"safety factor must be finite and >= 1, got {safety}")
    try:
        t = (safety * 2.0 * noise_sup / phi) ** 2
    except OverflowError:  # a float's ** raises where numpy would give inf
        t = math.inf
    if not math.isfinite(t):
        raise NumericOverflow(f"the oracle threshold t overflows float64 (noise sup-norm "
                              f"||E_n[x_i eps_i]||_inf = {noise_sup!r}, phi = {phi!r})")
    return max(t, THRESHOLD_FLOOR)
