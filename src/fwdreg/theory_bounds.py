"""Sparse eigenvalues of the Gram matrix and finite-sample bound constants.

Computes the minimum s-sparse eigenvalue (exactly by subset enumeration,
or as a sampled upper bound), the bound constants that combine it with
the threshold and the noise-covariate correlation, and end-to-end checks
of the prediction-error, selection-count and parameter-error bounds on a
fitted instance with known ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_linalg import Dataset
from .errors import (
    BudgetExceeded,
    MissingGroundTruth,
    NonpositiveEigenvalue,
)
from .forward_select import FitResult

# Upper bound on the real Grothendieck constant used by the selection-count
# constant; an absolute constant, not recomputed.
GROTHENDIECK_BOUND = 1.783

# Default cap on the number of subsets an exact enumeration may scan.
DEFAULT_SUBSET_BUDGET = 10_000_000

# Relative slack of the parameter-error chain in verify_theorem3, for
# rounding in the error norms.
THEOREM3_RTOL = 1e-9

_CHUNK = 20_000


@dataclass(frozen=True)
class SparseEigReport:
    """Minimum sparse eigenvalue over subsets of size <= s.

    ``method`` is "exact" (true minimum, witness achieves it) or "sampled"
    (minimum over a sampled subfamily, hence an UPPER bound on the truth).
    """

    s: int
    value: float
    method: str
    witness: tuple[int, ...]
    subsets_examined: int


@dataclass(frozen=True)
class C2Check:
    m: int
    c2: float
    holds: bool


@dataclass(frozen=True)
class BoundReport:
    """Bound constants and verdicts for one fitted instance.

    ``threshold_ok`` is the regularization premise evaluated at the
    smallest checked size (m = 0, i.e. phi_min(s0)); per-m admission is
    re-checked inside ``c2_of_m``. ``caveat_flag`` is set when sampled
    eigenvalues were used: a sampled phi only upper-bounds the truth, so
    a failed check is inconclusive while a passed check is genuine.
    """

    c1: float
    c2_of_m: tuple[C2Check, ...]
    threshold_ok: bool
    noise_sup: float
    pred_bound_holds: bool
    eig_method: str
    caveat_flag: bool


def _batched_min_eig(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of g restricted to each row of subset indices."""
    sub = g[idx[:, :, None], idx[:, None, :]]
    return np.linalg.eigvalsh(sub)[:, 0]


def sparse_eig_exact(
    g: np.ndarray, s: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> SparseEigReport:
    """Exact minimum s-sparse eigenvalue by enumeration.

    Only subsets of size exactly min(s, p) are scanned: by Cauchy
    interlacing, deleting rows/columns of a principal submatrix can only
    raise the smallest eigenvalue, so smaller subsets are redundant.
    Raises BudgetExceeded when the C(p, min(s, p)) subsets to scan exceed
    ``budget``; callers should fall back to sparse_eig_sampled.
    """
    p = g.shape[0]
    if s < 1:
        raise ValueError("subset size bound s must be >= 1")
    size = min(int(s), p)
    total = math.comb(p, size)
    if total > budget:
        raise BudgetExceeded(f"C({p}, {size}) = {total} subsets > budget {budget}")

    best_val = math.inf
    best_wit: tuple[int, ...] = ()
    examined = 0
    combos = itertools.combinations(range(p), size)
    while True:
        block = list(itertools.islice(combos, _CHUNK))
        if not block:
            break
        idx = np.array(block, dtype=np.intp)
        vals = _batched_min_eig(g, idx)
        examined += idx.shape[0]
        i = int(np.argmin(vals))
        # strict < keeps the lexicographically smallest witness on ties
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_wit = tuple(int(j) for j in idx[i])
    return SparseEigReport(
        s=int(s),
        value=max(best_val, 0.0),
        method="exact",
        witness=best_wit,
        subsets_examined=examined,
    )


def sparse_eig_sampled(
    g: np.ndarray, s: int, draws: int, seed: int
) -> SparseEigReport:
    """Sampled surrogate: min over random size-s subsets plus, for every
    column, the group of its most-correlated partners.

    The value is an upper bound on the exact phi_min(s) (a minimum over a
    subfamily can only be larger), and is reported as such.
    """
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
            order = np.argsort(-offdiag[j])
            partners = [int(k) for k in order if k != j][: size - 1]
            suspicious.append(tuple(sorted([j] + partners)))

    rng = np.random.default_rng(seed)
    keys = rng.random((draws, p))
    drawn = np.sort(np.argpartition(keys, size - 1, axis=1)[:, :size], axis=1)

    idx = np.vstack([np.array(suspicious, dtype=np.intp), drawn.astype(np.intp)])
    vals = _batched_min_eig(g, idx)
    i = int(np.argmin(vals))
    return SparseEigReport(
        s=int(s),
        value=max(float(vals[i]), 0.0),
        method="sampled",
        witness=tuple(int(j) for j in idx[i]),
        subsets_examined=idx.shape[0],
    )


def constant_c1(
    s_hat: int, s0: int, phi: float, noise_sup: float, t: float
) -> float:
    """Prediction-error bound constant:
    sqrt(s_hat + s0) * phi^{-1} * (2 * noise_sup + sqrt(t))."""
    if phi <= 0:
        raise NonpositiveEigenvalue(f"phi = {phi}")
    if t <= 0:
        raise ValueError("threshold t must be positive")
    return math.sqrt(s_hat + s0) / phi * (2.0 * noise_sup + math.sqrt(t))


def constant_c2(phi: float) -> float:
    """Selection-count bound constant: 1 + 72 * 1.783^2 * phi^{-5}.

    The count bound m <= c2 * s0 uses phi = phi_min(m + s0), the minimum
    sparse eigenvalue at m false selections plus the true support.
    """
    if phi <= 0:
        raise NonpositiveEigenvalue(f"phi = {phi}")
    return 1.0 + 72.0 * GROTHENDIECK_BOUND**2 * phi**-5


def threshold_condition(t: float, phi: float, noise_sup: float) -> bool:
    """Regularization premise: sqrt(t) >= 2 * noise_sup / phi (non-strict)."""
    if phi <= 0:
        raise NonpositiveEigenvalue(f"phi = {phi}")
    if t <= 0:
        raise ValueError("threshold t must be positive")
    return math.sqrt(t) >= 2.0 * noise_sup / phi


def noise_covariate_sup(ds: Dataset) -> float:
    """Sup-norm of the empirical noise-covariate correlations
    ||E_n[eps_i x_i]||_inf."""
    if ds.epsilon is None:
        raise MissingGroundTruth("dataset has no stored disturbances")
    return float(np.max(np.abs(ds.x.T @ ds.epsilon / ds.n)))


EigSource = Callable[[int], SparseEigReport]


def exact_eig_source(g: np.ndarray) -> EigSource:
    """Memoized size -> exact SparseEigReport lookup on one Gram matrix."""
    cache: dict[int, SparseEigReport] = {}

    def source(size: int) -> SparseEigReport:
        if size not in cache:
            cache[size] = sparse_eig_exact(g, size)
        return cache[size]

    return source


def verify_theorem1(
    fr: FitResult, ds: Dataset, t: float, eig: EigSource
) -> BoundReport:
    """Check the prediction-error bound and the selection-count bound.

    The prediction-error inequality pred_error_norm <= c1 has no premise
    beyond the algorithm itself; with exact eigenvalues any failure is an
    implementation bug. The count bound m <= c2(m) * s0 is checked for
    every m up to the number of false selections whose threshold premise
    holds at phi_min(m + s0).
    """
    if ds.theta0 is None or ds.epsilon is None:
        raise MissingGroundTruth("verify_theorem1 needs theta0 and epsilon")
    if fr.pred_error_norm is None:
        raise MissingGroundTruth("fit result carries no prediction-error norm")

    s0_support = set(np.flatnonzero(ds.theta0).tolist())
    s0 = len(s0_support)
    s_hat = fr.s_hat
    noise_sup = noise_covariate_sup(ds)

    pred_rep = eig(max(s_hat + s0, 1))
    c1 = constant_c1(s_hat, s0, pred_rep.value, noise_sup, t)
    pred_bound_holds = fr.pred_error_norm <= c1

    methods = {pred_rep.method}
    m_max = len(set(fr.support) - s0_support)
    checks: list[C2Check] = []
    threshold_ok = False
    for m in range(m_max + 1):
        rep = eig(max(m + s0, 1))
        methods.add(rep.method)
        if not threshold_condition(t, rep.value, noise_sup):
            continue
        if m == 0:
            threshold_ok = True
        c2 = constant_c2(rep.value)
        checks.append(C2Check(m=m, c2=c2, holds=m <= c2 * s0))

    eig_method = "sampled" if "sampled" in methods else "exact"
    return BoundReport(
        c1=c1,
        c2_of_m=tuple(checks),
        threshold_ok=threshold_ok,
        noise_sup=noise_sup,
        pred_bound_holds=pred_bound_holds,
        eig_method=eig_method,
        caveat_flag=eig_method == "sampled",
    )


def verify_theorem3(fr: FitResult, eig: SparseEigReport) -> tuple[bool, bool]:
    """Check the chained parameter-error inequalities
    l1 <= sqrt(s_hat + s0) * l2 <= sqrt(s_hat + s0) * phi^{-1} * pred_norm.

    ``eig`` must be the sparse-eigenvalue report at size s_hat + s0.
    """
    if fr.l1_error is None or fr.l2_error is None or fr.pred_error_norm is None:
        raise MissingGroundTruth("fit result carries no parameter errors")
    if eig.value <= 0:
        raise NonpositiveEigenvalue(f"phi = {eig.value}")
    root = math.sqrt(eig.s)
    slack = lambda v: v * (1.0 + THEOREM3_RTOL) + 1e-15  # noqa: E731
    l1_ok = fr.l1_error <= slack(root * fr.l2_error)
    l2_ok = root * fr.l2_error <= slack(root / eig.value * fr.pred_error_norm)
    return l2_ok, l1_ok
