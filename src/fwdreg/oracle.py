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
from .simulate import SimConfig, _theta_values
from .theory_bounds import SparseEigReport, _screen_level

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
        raise BudgetExceeded(f"C({ds.p}, {k}) exceeds budget {budget}", k)
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


def sparse_eig_sampled_plain(g: np.ndarray, s: int) -> SparseEigReport:
    """sparse_eig_sampled without its partition-based top-k, its screen and
    its vectorized bounds: a stable argsort of each row picks the partner
    groups (one loop per column), so ties go to the lower index, and every
    group gets eigvalsh; the witness is the lexicographically smallest
    group that attains the minimum. The exchange descent then loops over
    every swap (i out, o in) and solves the 2 x 2 matrix of the Rayleigh
    quotient over span{u_i, e_o} on its own; it shares only the
    incumbent's eigh and the rounding margin with the fast path."""
    p = g.shape[0]
    if s < 1:
        raise ValueError("subset size bound s must be >= 1")
    size = min(int(s), p)

    groups: list[tuple[int, ...]] = []
    if size == p:
        groups.append(tuple(range(p)))
    else:
        offdiag = np.abs(g - np.diag(np.diag(g)))
        for j in range(p):
            order = np.argsort(-offdiag[j], kind="stable")
            partners = [int(k) for k in order if k != j][: size - 1]
            groups.append(tuple(sorted([j] + partners)))
    idx = np.array(groups, dtype=np.intp)
    vals = np.linalg.eigvalsh(g[idx[:, :, None], idx[:, None, :]])[:, 0]
    value = float(vals.min())
    witness = min(tuple(int(j) for j in row) for row in idx[vals == value])

    solved = 0
    if size < p:
        gmax = float(np.max(np.abs(g)))
        lams, vecs = np.linalg.eigh(g[np.ix_(witness, witness)])
        lam, v = float(lams[0]), vecs[:, 0]
        while True:
            tol = _screen_level(lam, size, gmax) - lam
            g_s = g[np.ix_(witness, witness)]
            bounds = {}
            for o in range(p):
                if o in witness:
                    continue
                for pos, i in enumerate(witness):
                    u = v.copy()
                    u[pos] = 0.0
                    m = float(u @ u)
                    if m == 0.0:
                        continue  # no trial vector besides e_o
                    b = float(g[o, list(witness)] @ u) / math.sqrt(m)
                    two = np.array([[float(u @ g_s @ u) / m, b], [b, g[o, o]]])
                    bounds[o, i] = float(np.linalg.eigvalsh(two)[0])
            if not bounds:
                break
            low = min(bounds.values())
            moves = [key for key, bound in sorted(bounds.items())
                     if bound <= low + tol and bound < lam - tol]
            if not moves:
                break
            o, i = moves[0]
            trial = tuple(sorted(set(witness) - {i} | {o}))
            lams, vecs = np.linalg.eigh(g[np.ix_(trial, trial)])
            solved += 1
            if not lams[0] < lam - tol:
                break
            witness, lam, v = trial, float(lams[0]), vecs[:, 0]
            value = lam
    return SparseEigReport(
        s=int(s),
        value=max(value, 0.0),
        method="sampled",
        witness=witness,
        subsets_examined=len(groups) + solved,
    )


def _design_cholesky(cfg: SimConfig) -> np.ndarray | None:
    """Lower Cholesky factor of the population covariance, or None for the
    identity; simulate_dataset applies it by column recursions instead."""
    if cfg.design == "independent" or cfg.rho == 0.0:
        return None
    if cfg.design == "equicorrelated":
        cov = np.full((cfg.p, cfg.p), cfg.rho)
        np.fill_diagonal(cov, 1.0)
    else:  # toeplitz: entry (j, k) = rho^|j-k|
        k = np.arange(cfg.p)
        cov = (cfg.rho ** k)[np.abs(k[:, None] - k[None, :])]
    return np.linalg.cholesky(cov)


def leading_rows_plain(cfg: SimConfig, n: int) -> Dataset:
    """The dataset simulate.nested_samples(cfg, sizes) yields at n, without
    the detour through the larger grid points' standardized rows: redraw
    cfg.n raw rows on the same RNG stream, then standardize the first n of
    them on their own in extended precision."""
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
