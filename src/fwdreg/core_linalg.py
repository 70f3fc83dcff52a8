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
    OverflowingColumn,
    RankDeficientSupport,
    ZeroVarianceColumn,
)

# Below this (1/n)-norm^2, a residualized candidate carries no usable signal.
COLLINEAR_TOL = 1e-10

# Rank test for least squares: smallest singular value relative to largest.
RANK_TOL = 1e-10

# Largest column mean and second-moment deviation from 1 of a standardized design.
STANDARDIZED_TOL = 1e-8

# Columns per block of the centred temporary in column_moments, and the
# entries per block when a C-ordered design is taken a block of rows at a time.
MOMENT_BLOCK = 32
MOMENT_ROW_BLOCK_ENTRIES = 1 << 15


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


@np.errstate(over="ignore", invalid="ignore")
def column_moments(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sqrt of the biased (1/n) central second moment.

    The second moment is bit-equal to ``((raw - mean) ** 2).mean(axis=0)``
    in C and F order, but the centred temporary is one block, never the
    whole n x p design. numpy adds the rows of a C-ordered matrix in order,
    so a C-contiguous design is centred in blocks of rows of about
    MOMENT_ROW_BLOCK_ENTRIES entries, each with a first row that carries
    the running column sums of the rows before it; every step then runs
    over whole rows. Any other layout is centred MOMENT_BLOCK columns at a
    time, and no block is a single column unless p = 1: numpy sums a
    C-ordered (n, 1) slice pairwise, while it adds the rows of a wider
    block in order.

    A column whose moments fit in float64 but whose plain sums overflow
    is taken again divided by its largest |entry|; every other column
    keeps the plain result, bit for bit.

    Raises ValueError unless ``raw`` is a 2-d matrix with at least two
    rows, OverflowingColumn for a column whose second moment overflows
    float64 (numpy's overflow warnings are silenced, since this names the
    column), and ZeroVarianceColumn for a constant column (scale within
    rounding of zero relative to its mean); the caller must drop it or
    fail. A finite second moment bounds every deviation from the mean by
    sqrt(n) times its root, so centring cannot overflow.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("expected a 2-d design matrix")
    if raw.shape[0] < 2:
        raise ValueError("standardization needs at least two observations")
    mean = raw.mean(axis=0)
    n, p = raw.shape
    if raw.flags.c_contiguous and p > 1:
        rows = max(1, MOMENT_ROW_BLOCK_ENTRIES // p)
        block = np.empty((min(rows, n) + 1, p))
        total = np.zeros(p)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            part = block[: hi - lo + 1]
            part[0] = total
            np.subtract(raw[lo:hi], mean, out=part[1:])
            np.square(part[1:], out=part[1:])
            np.add.reduce(part, axis=0, out=total)
        second = total / n
    else:
        starts = list(range(0, p, MOMENT_BLOCK))
        if len(starts) > 1 and p - starts[-1] == 1:
            starts.pop()  # the last block takes the one-column tail
        second = np.empty(p)
        for lo, hi in zip(starts, starts[1:] + [p]):
            dev = raw[:, lo:hi] - mean[lo:hi]
            np.square(dev, out=dev)
            second[lo:hi] = dev.mean(axis=0)
            del dev  # before the next block is allocated
    for j in np.flatnonzero(~np.isfinite(second)):
        top = np.abs(raw[:, j]).max()
        unit = raw[:, j] / top
        mean[j] = unit.mean()
        unit -= mean[j]
        second[j] = np.mean(unit * unit) * top * top  # inf if it does not fit
        mean[j] *= top
    scale = np.sqrt(second)
    over = np.flatnonzero(~np.isfinite(scale))
    if over.size:
        raise OverflowingColumn(int(over[0]))
    bad = np.flatnonzero(scale <= 1e-13 * (np.abs(mean) + 1.0))
    if bad.size:
        raise ZeroVarianceColumn(int(bad[0]))
    return mean, scale


def standardize(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center each column of ``raw`` and scale it to unit (1/n) second
    moment, in place; return the column (mean, scale) it removed.

    The result is bit-equal to ``(raw - mean) / scale``. ``raw`` must be a
    float64 array; it is left untouched when this raises, which it does as
    ``column_moments`` does: both moments are known before ``raw`` is
    written, and taking them holds one block of columns, not a second
    design.
    """
    if not isinstance(raw, np.ndarray) or raw.dtype != np.float64:
        raise TypeError("standardize works in place on a float64 array")
    mean, scale = column_moments(raw)
    raw -= mean
    raw /= scale
    return mean, scale


def gram(x: np.ndarray) -> np.ndarray:
    """Empirical Gram matrix (1/n) X'X of the n x p design ``x``.

    numpy forms x.T @ x as one symmetric product (BLAS syrk, or a loop
    that sums each pair's products in the same order), so it is exactly
    symmetric and needs no (G + G')/2; the one p x p array is scaled in
    place."""
    g = x.T @ x
    g /= x.shape[0]
    return g


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
    and ``residual_loss`` equals l(support). ``corr`` is X'r/n for that
    residual r, and ``col_norm2[j]`` the (1/n) norm^2 of column j
    residualized against the basis. Both are carried by rank-one updates
    from the one product q'X/n of each extension (the covariance form of
    orthogonal least squares, Blumensath & Davies 2007). The updates round
    at the scale of the residual where ``corr`` was last computed directly,
    so ``ortho_extend`` recomputes it once ``residual_loss`` falls below a
    quarter of ``corr_loss``, the loss at that direct product; the carried
    entries then stay within rounding of twice the current residual's norm.
    """

    support: tuple[int, ...]
    basis: np.ndarray
    residual: np.ndarray
    residual_loss: float
    corr: np.ndarray
    col_norm2: np.ndarray
    corr_loss: float


def initial_state(ds: Dataset) -> OrthoState:
    """Empty-support state: residual is y itself."""
    loss = en_dot(ds.y, ds.y)
    return OrthoState(
        support=(),
        basis=np.empty((ds.n, 0)),
        residual=ds.y.copy(),
        residual_loss=loss,
        corr=ds.x.T @ ds.y / ds.n,
        col_norm2=np.einsum("ij,ij->j", ds.x, ds.x) / ds.n,
        corr_loss=loss,
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

    One pass over X, the product q'X/n with the new basis vector q,
    updates both carried vectors: r' = r - (q'r/n) q gives
    corr' = corr - (q'r/n) q'X/n, and col_norm2' = col_norm2 - (q'X/n)^2.
    When the loss of r' is below a quarter of ``state.corr_loss``, a
    second pass computes corr' = X'r'/n directly instead.

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
    loss = en_dot(residual, residual)
    qx = q @ ds.x / ds.n
    if loss < 0.25 * state.corr_loss:
        corr, corr_loss = residual @ ds.x / ds.n, loss
    else:
        corr, corr_loss = state.corr - proj * qx, state.corr_loss
    return OrthoState(
        support=state.support + (j,),
        basis=np.column_stack([state.basis, q]),
        residual=residual,
        residual_loss=loss,
        corr=corr,
        col_norm2=state.col_norm2 - qx**2,
        corr_loss=corr_loss,
    )
