"""Independent brute-force references.

These deliberately take a different numerical route than the main path
(explicit normal equations instead of Gram-Schmidt / SVD, and a second
eigensolver for subset enumeration) so that agreement in tests is
evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .core_linalg import Dataset, en_dot
from .errors import BudgetExceeded, RankDeficientSupport
from .simulate import SimConfig, _design_cholesky, _theta_values
from .theory_bounds import SparseEigReport

_RANK_TOL = 1e-10


def _solve_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in extended precision.

    LAPACK has no long-double path, so the tiny normal-equation systems
    the oracle meets (k <= ~10) are solved by hand.
    """
    a = a.copy()
    b = b.copy()
    k = a.shape[0]
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise RankDeficientSupport("singular normal equations")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factor = a[col + 1 :, col] / a[col, col]
        a[col + 1 :] -= factor[:, None] * a[col]
        b[col + 1 :] -= factor * b[col]
    theta = np.zeros(k, dtype=a.dtype)
    for col in range(k - 1, -1, -1):
        theta[col] = (b[col] - a[col, col + 1 :] @ theta[col + 1 :]) / a[col, col]
    return theta


def _loss_extended(ds: Dataset, idx: list[int]) -> np.longdouble:
    """Restricted loss via explicit normal equations in extended precision.

    The extra mantissa bits keep the loss DIFFERENCE between nested
    supports meaningful even when the incremental gain is many orders of
    magnitude below the loss itself.
    """
    y = ds.y.astype(np.longdouble)
    total = (y @ y) / ds.n
    if not idx:
        return total
    xs = ds.x[:, idx].astype(np.longdouble)
    g = xs.T @ xs / ds.n
    b = xs.T @ y / ds.n
    eigs = np.linalg.eigvalsh(g.astype(float))
    if eigs[0] <= _RANK_TOL * max(eigs[-1], _RANK_TOL):
        raise RankDeficientSupport(f"columns {idx} are numerically collinear")
    theta = _solve_extended(g, b)
    return total - b @ theta


def loss_on_support(ds: Dataset, support: Iterable[int]) -> float:
    """Restricted least-squares loss via explicit normal equations."""
    idx = sorted(set(int(j) for j in support))
    if not idx:
        return en_dot(ds.y, ds.y)
    return float(_loss_extended(ds, idx))


def naive_delta_loss(ds: Dataset, support: Iterable[int], j: int) -> float:
    """Incremental loss l(S u {j}) - l(S) from two independent solves.

    A candidate already in the span of S adds no information: the
    enlarged solve is then rank deficient and the difference is zero.
    """
    base = sorted(set(int(k) for k in support))
    if j in base:
        raise ValueError(f"column {j} is already in the support")
    loss_s = _loss_extended(ds, base)
    try:
        loss_sj = _loss_extended(ds, base + [int(j)])
    except RankDeficientSupport:
        return 0.0
    return float(loss_sj - loss_s)


def best_subset(
    ds: Dataset, k: int, budget: int = 1_000_000
) -> tuple[tuple[int, ...], float]:
    """Exact minimizer of l(S) over supports of size k by enumeration.

    Rank-deficient subsets are skipped (a collinear subset never beats
    its full-rank subfamilies). Ties go to the lexicographically first
    subset.
    """
    if not 0 <= k <= ds.p:
        raise ValueError("need 0 <= k <= p")
    if math.comb(ds.p, k) > budget:
        raise BudgetExceeded(f"C({ds.p}, {k}) exceeds budget {budget}")
    if k == 0:
        return (), en_dot(ds.y, ds.y)
    best_s: tuple[int, ...] = ()
    best_loss = math.inf
    for combo in itertools.combinations(range(ds.p), k):
        try:
            loss = loss_on_support(ds, combo)
        except RankDeficientSupport:
            continue
        if loss < best_loss:
            best_loss = loss
            best_s = combo
    if best_loss is math.inf:
        raise RankDeficientSupport(f"every size-{k} subset is collinear")
    return best_s, best_loss


def sparse_eig_bruteforce(g: np.ndarray, s: int) -> SparseEigReport:
    """Minimum sparse eigenvalue scanning ALL subsets of size <= s, one
    scipy eigensolver call per subset. Small p only."""
    import scipy.linalg  # test-only dependency; fwdreg itself needs numpy only
    p = g.shape[0]
    if s < 1:
        raise ValueError("subset size bound s must be >= 1")
    best_val = math.inf
    best_wit: tuple[int, ...] = ()
    examined = 0
    for size in range(1, min(s, p) + 1):
        for combo in itertools.combinations(range(p), size):
            idx = list(combo)
            lam = float(scipy.linalg.eigvalsh(g[np.ix_(idx, idx)])[0])
            examined += 1
            if lam < best_val:
                best_val = lam
                best_wit = combo
    return SparseEigReport(
        s=int(s),
        value=max(best_val, 0.0),
        method="exact",
        witness=best_wit,
        subsets_examined=examined,
    )


def sparse_eig_sampled_plain(
    g: np.ndarray, s: int, draws: int, seed: int
) -> SparseEigReport:
    """sparse_eig_sampled without its partition-based top-k and its
    screen: a stable argsort of each row picks the partner groups (one
    loop per column) and the draws, so ties go to the lower index, and
    every group and every draw gets eigvalsh. Same RNG stream, drawn in
    one call; the witness is the lexicographically smallest subset in
    [groups; draws] that attains the minimum."""
    p = g.shape[0]
    if s < 1:
        raise ValueError("subset size bound s must be >= 1")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    size = min(int(s), p)

    suspicious: list[tuple[int, ...]] = []
    if size == p:
        suspicious.append(tuple(range(p)))
    else:
        offdiag = np.abs(g - np.diag(np.diag(g)))
        for j in range(p):
            order = np.argsort(-offdiag[j], kind="stable")
            partners = [int(k) for k in order if k != j][: size - 1]
            suspicious.append(tuple(sorted([j] + partners)))

    rng = np.random.default_rng(seed)
    keys = rng.random((draws, p))
    drawn = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :size], axis=1)

    idx = np.vstack([np.array(suspicious, dtype=np.intp), drawn.astype(np.intp)])
    vals = np.linalg.eigvalsh(g[idx[:, :, None], idx[:, None, :]])[:, 0]
    low = float(vals.min())
    return SparseEigReport(
        s=int(s),
        value=max(low, 0.0),
        method="sampled",
        witness=min(tuple(int(j) for j in row) for row in idx[vals == low]),
        subsets_examined=idx.shape[0],
    )


def leading_rows_plain(cfg: SimConfig, n: int) -> Dataset:
    """simulate.leading_rows(simulate_dataset(cfg), n) without the detour
    through the full standardized design: redraw cfg.n raw rows on the same
    RNG stream, then standardize the first n of them on their own in
    extended precision."""
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal((cfg.n, cfg.p))
    chol = _design_cholesky(cfg)
    if chol is not None:
        raw = raw @ chol.T
    epsilon = cfg.noise_sd * rng.standard_normal(cfg.n)[:n]
    support = np.sort(rng.choice(cfg.p, size=cfg.s0, replace=False))

    head = raw[:n].astype(np.longdouble)
    dev = head - head.mean(axis=0)
    scale = np.sqrt((dev * dev).mean(axis=0))
    x = dev / scale
    theta0 = np.zeros(cfg.p, dtype=np.longdouble)
    theta0[support] = _theta_values(cfg) * scale[support]
    y = x @ theta0 + epsilon
    return Dataset(x=x.astype(float), y=y.astype(float),
                   theta0=theta0.astype(float), epsilon=epsilon)
