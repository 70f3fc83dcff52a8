"""Sparse linear-model data generation with known ground truth.

Rows are Gaussian with a chosen covariance family; after standardization
the stored coefficients and disturbances are re-expressed so that
y = X theta0 + epsilon holds exactly in standardized coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .core_linalg import Dataset, column_moments
from .errors import NonpositiveEigenvalue
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
        if not 0 <= self.s0 <= self.p:
            raise ValueError("need 0 <= s0 <= p")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be < 1")
        if self.theta_pattern not in THETA_PATTERNS:
            raise ValueError(f"theta_pattern must be one of {THETA_PATTERNS}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SimConfig":
        return cls(**d)


def _design_cholesky(cfg: SimConfig) -> np.ndarray | None:
    """Lower Cholesky factor of the population covariance, or None for the
    identity."""
    if cfg.design == "independent" or cfg.rho == 0.0:
        return None
    if cfg.design == "equicorrelated":
        cov = np.full((cfg.p, cfg.p), cfg.rho)
        np.fill_diagonal(cov, 1.0)
    else:  # toeplitz: entry (j, k) = rho^|j-k|
        k = np.arange(cfg.p)
        cov = (cfg.rho ** k)[np.abs(k[:, None] - k[None, :])]
    return np.linalg.cholesky(cov)


def _theta_values(cfg: SimConfig) -> np.ndarray:
    k = np.arange(cfg.s0)
    if cfg.theta_pattern == "constant":
        return np.full(cfg.s0, cfg.c)
    if cfg.theta_pattern == "decaying":
        return cfg.c * (k + 1.0) ** -cfg.rate
    return cfg.c * (-1.0) ** k


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Draw one dataset; fully deterministic under (cfg, cfg.seed).

    The true support is a seeded random subset of the columns (not the
    leading ones, to avoid accidental alignment with index tie-breaking).
    """
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal((cfg.n, cfg.p))
    chol = _design_cholesky(cfg)
    if chol is not None:
        raw = raw @ chol.T
    epsilon = cfg.noise_sd * rng.standard_normal(cfg.n)
    support = np.sort(rng.choice(cfg.p, size=cfg.s0, replace=False))

    mean, scale = column_moments(raw)
    x = (raw - mean) / scale

    theta0 = np.zeros(cfg.p)
    theta0[support] = _theta_values(cfg) * scale[support]
    y = x @ theta0 + epsilon
    return Dataset(x=x, y=y, theta0=theta0, epsilon=epsilon)


@dataclass(frozen=True)
class ThresholdChoice:
    t: float
    floored: bool


def oracle_threshold(ds: Dataset, phi: float, safety: float = 1.0) -> ThresholdChoice:
    """Smallest threshold (scaled by safety^2) meeting the regularization
    condition sqrt(t) >= 2 * ||E_n[x_i eps_i]||_inf / phi.

    Uses the true disturbances, available only in simulation; this
    deliberately isolates bound verification from feasible threshold
    selection. A degenerate t below THRESHOLD_FLOOR is floored and flagged.
    """
    noise_sup = noise_covariate_sup(ds)
    if phi <= 0:
        raise NonpositiveEigenvalue(f"phi = {phi}")
    if not (math.isfinite(safety) and safety >= 1):
        raise ValueError(f"safety factor must be finite and >= 1, got {safety}")
    t = (safety * 2.0 * noise_sup / phi) ** 2
    if t < THRESHOLD_FLOOR:
        return ThresholdChoice(t=THRESHOLD_FLOOR, floored=True)
    return ThresholdChoice(t=t, floored=False)
