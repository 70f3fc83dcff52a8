"""Dense linear-algebra kernels.

Standardization, Gram matrix, least squares on a support, and an
incremental orthogonal-basis state that makes candidate scoring cheap.
All R^n geometry uses the (1/n)-scaled inner product, so losses, Gram
entries and correlations share the same empirical-average scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (
    CollinearCandidate,
    RankDeficientSupport,
    ZeroVarianceColumn,
)

# Below this (1/n)-norm^2, a residualized candidate carries no usable signal.
COLLINEAR_TOL = 1e-10

# Rank test for least squares: smallest singular value relative to largest.
RANK_TOL = 1e-10

# Largest column mean and second-moment deviation from 1 of a standardized design.
STANDARDIZED_TOL = 1e-8


def en_dot(u: np.ndarray, v: np.ndarray) -> float:
    """(1/n)-scaled inner product of two vectors in R^n."""
    return float(u @ v) / u.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Design matrix and response, optionally with simulation ground truth.

    When ``theta0``/``epsilon`` are present, ``y = x @ theta0 + epsilon``
    holds exactly as stored.
    """

    x: np.ndarray
    y: np.ndarray
    theta0: Optional[np.ndarray] = None
    epsilon: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise ValueError("x must be a matrix and y a vector")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y disagree on the number of observations")
        if self.x.shape[0] < 1 or self.x.shape[1] < 1:
            raise ValueError("need at least one observation and one covariate")
        if (self.theta0 is None) != (self.epsilon is None):
            raise ValueError("theta0 and epsilon must be given together")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def column_moments(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sqrt of the biased (1/n) central second moment.

    Raises ValueError unless ``raw`` is a 2-d matrix with at least two
    rows, and ZeroVarianceColumn for a constant column (scale within
    rounding of zero relative to its mean); the caller must drop it or
    fail.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("expected a 2-d design matrix")
    if raw.shape[0] < 2:
        raise ValueError("standardization needs at least two observations")
    mean = raw.mean(axis=0)
    scale = np.sqrt(((raw - mean) ** 2).mean(axis=0))
    bad = np.flatnonzero(scale <= 1e-13 * (np.abs(mean) + 1.0))
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    return mean, scale


def standardize(raw: np.ndarray) -> np.ndarray:
    """Center each column and scale it to unit (1/n) second moment.

    Raises as ``column_moments`` does.
    """
    mean, scale = column_moments(raw)
    return (raw - mean) / scale


def is_standardized(x: np.ndarray) -> bool:
    """True when every column is centered and has unit second moment."""
    return bool(
        np.max(np.abs(x.mean(axis=0))) <= STANDARDIZED_TOL
        and np.max(np.abs((x * x).mean(axis=0) - 1.0)) <= STANDARDIZED_TOL
    )


def gram(ds: Dataset) -> np.ndarray:
    """Empirical Gram matrix (1/n) X'X of the design."""
    g = ds.x.T @ ds.x / ds.n
    # enforce exact symmetry against accumulation order
    return (g + g.T) / 2.0


def least_squares_on_support(
    ds: Dataset, support: Iterable[int]
) -> tuple[np.ndarray, float]:
    """Least-squares coefficients restricted to ``support`` and the loss.

    Returns a full-length coefficient vector that is zero off the support.
    Raises RankDeficientSupport when the selected columns are numerically
    collinear (smallest singular value below RANK_TOL times the largest).
    """
    idx = sorted(set(int(j) for j in support))
    theta = np.zeros(ds.p)
    if not idx:
        return theta, en_dot(ds.y, ds.y)
    if len(idx) > ds.n:
        raise RankDeficientSupport(f"support size {len(idx)} exceeds n={ds.n}")
    xs = ds.x[:, idx]
    u, sv, vt = np.linalg.svd(xs, full_matrices=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficientSupport(f"columns {idx} are numerically collinear")
    coef = vt.T @ ((u.T @ ds.y) / sv)
    theta[idx] = coef
    resid = ds.y - xs @ coef
    return theta, en_dot(resid, resid)


@dataclass(frozen=True)
class OrthoState:
    """Incremental realization of the restricted loss l(S).

    ``basis`` holds the selected columns orthonormalized under the (1/n)
    inner product; ``residual`` is y minus its projection onto their span,
    and ``residual_loss`` equals l(support). ``col_norm2[j]`` is the (1/n)
    norm^2 of column j residualized against the basis, carried by rank-one
    downdates (orthogonal least squares, Blumensath & Davies 2007).
    """

    support: tuple[int, ...]
    basis: np.ndarray
    residual: np.ndarray
    residual_loss: float
    col_norm2: np.ndarray


def initial_state(ds: Dataset) -> OrthoState:
    """Empty-support state: residual is y itself."""
    return OrthoState(
        support=(),
        basis=np.empty((ds.n, 0)),
        residual=ds.y.copy(),
        residual_loss=en_dot(ds.y, ds.y),
        col_norm2=np.einsum("ij,ij->j", ds.x, ds.x) / ds.n,
    )


def _residualize(basis: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Project ``col`` off span(basis), reorthogonalizing once if the norm
    drops below 0.7x the pre-projection norm (modified Gram-Schmidt)."""
    n = col.shape[0]
    if basis.shape[1] == 0:
        return col.copy()
    c = col - basis @ (basis.T @ col / n)
    if en_dot(c, c) < 0.49 * en_dot(col, col):
        c = c - basis @ (basis.T @ c / n)
    return c


def ortho_extend(state: OrthoState, j: int, ds: Dataset) -> OrthoState:
    """Extend the state by column ``j``; the prior state stays valid.

    Raises CollinearCandidate when column j lies in the span of the
    current support (residualized (1/n)-norm^2 <= COLLINEAR_TOL).
    """
    j = int(j)
    if j in state.support:
        raise ValueError(f"column {j} is already in the support")
    if not 0 <= j < ds.p:
        raise ValueError(f"column index {j} out of range")
    c = _residualize(state.basis, ds.x[:, j])
    norm2 = en_dot(c, c)
    if norm2 <= COLLINEAR_TOL:
        raise CollinearCandidate(j)
    q = c / math.sqrt(norm2)
    proj = en_dot(q, state.residual)
    residual = state.residual - proj * q
    return OrthoState(
        support=state.support + (j,),
        basis=np.column_stack([state.basis, q]),
        residual=residual,
        residual_loss=en_dot(residual, residual),
        col_norm2=state.col_norm2 - (q @ ds.x / ds.n) ** 2,
    )
