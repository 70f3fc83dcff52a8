"""Shared test utilities."""

import os
import pathlib

import numpy as np

import fwdreg
from fwdreg.core_linalg import Dataset, standardize


def child_env(**overrides):
    """Environment for a fresh interpreter that imports this fwdreg."""
    src = str(pathlib.Path(fwdreg.__file__).resolve().parents[1])
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def orthonormal_design(rng, n, p):
    """Centered design whose columns are orthonormal under the (1/n)
    inner product (exactly standardized)."""
    assert p < n
    raw = rng.standard_normal((n, p + 1))
    raw[:, 0] = 1.0  # absorb the constant direction so Q is centered
    q, _ = np.linalg.qr(raw)
    return q[:, 1 : p + 1] * np.sqrt(n)


def random_standardized_dataset(rng, n, p, s0=None, noise_sd=0.5):
    """Standardized Gaussian design with a random sparse signal."""
    x = rng.standard_normal((n, p))
    standardize(x)
    if s0 is None:
        s0 = min(3, p)
    theta0 = np.zeros(p)
    support = rng.choice(p, size=s0, replace=False)
    theta0[support] = rng.uniform(0.5, 2.0, s0) * rng.choice([-1.0, 1.0], s0)
    eps = noise_sd * rng.standard_normal(n)
    y = x @ theta0 + eps
    return Dataset(x=x, y=y, theta0=theta0, epsilon=eps)
