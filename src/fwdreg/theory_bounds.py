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
from typing import Callable, Iterable

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


def _lowest(g: np.ndarray, idx: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Smallest eigenvalue over the subsets in the rows of idx, and the
    lexicographically smallest subset that attains it."""
    vals = _batched_min_eig(g, idx)
    low = float(vals.min())
    tied = idx[vals == low]
    return low, tuple(int(j) for j in tied[np.lexsort(tied.T[::-1])[0]])


def _subset_size(s: int, p: int) -> int:
    """k = min(s, p): by Cauchy interlacing, deleting rows/columns of a
    principal submatrix can only raise its smallest eigenvalue."""
    if s < 1:
        raise ValueError("subset size bound s must be >= 1")
    return min(int(s), p)


def _screen_level(best: float, size: int, gmax: float) -> float:
    """The level c just above the incumbent minimum ``best`` that a
    size-``size`` subset S is screened against, for a Gram matrix with
    largest entry ``gmax`` in absolute value. When G_S - cI is positive
    definite, lambda_min(G_S) > c, so S can neither lower nor tie ``best``.
    The margin tol = max(1e-12, 1e-14 size^2) * gmax lies far above the
    rounding error of an unpivoted LDL' whose pivots are positive."""
    return best + 1e-9 * abs(best) + max(1e-12, 1e-14 * size * size) * gmax


def _partner_groups(g: np.ndarray, size: int) -> np.ndarray:
    """For every column j, j and its size - 1 most-correlated partners
    (largest |g_jk|, ties as argsort orders them), sorted; one row per
    column. The only group is range(p) when size = p."""
    p = g.shape[0]
    if size == p:
        return np.arange(p, dtype=np.intp)[None, :]
    offdiag = np.abs(g - np.diag(np.diag(g)))
    order = np.argsort(-offdiag, axis=1)
    cols = np.arange(p, dtype=np.intp)[:, None]
    partners = order[order != cols].reshape(p, p - 1)[:, : size - 1]
    return np.sort(np.hstack([cols, partners]), axis=1)


def _colex_table(n: int, m: int) -> np.ndarray:
    """All m-subsets of range(n), one per row, in colex order.

    Colex order sorts by the largest element first, so for every n' <= n
    the m-subsets of range(n') are exactly the first C(n', m) rows. Level
    j of the build holds only the j-subsets of range(n - m + j), which
    leave room for m - j larger elements, so no level outgrows the table.
    The smallest integer dtype that holds n keeps the table compact.
    """
    dtype = np.min_scalar_type(n)
    table = np.arange(n - m + 1, dtype=dtype)[:, None]
    for j in range(2, m + 1):
        table = np.vstack(
            [np.column_stack([table[: math.comb(top, j - 1)],
                              np.full(math.comb(top, j - 1), top, dtype=dtype)])
             for top in range(j - 1, n - m + j)]
        )
    return table


def _eliminate(a: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` steps of an unpivoted LDL' of each symmetric matrix in the
    batch a, in place, leaving the Schur complement of the leading block
    in a[steps:, steps:]; per matrix, whether every pivot was > 0. The
    batch axis is last, so each step works on contiguous vectors."""
    ok = np.ones(a.shape[2], dtype=bool)
    for j in range(steps):
        ok &= a[j, j] > 0
        ratio = a[j + 1 :, j] / np.where(ok, a[j, j], 1.0)
        a[j + 1 :, j + 1 :] -= ratio[:, None] * a[None, j, j + 1 :]
    return ok


def _positive_definite_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether a restricted to each row of indices is positive definite."""
    sub = np.take(a, rows.T[:, None, :] * a.shape[0] + rows.T[None, :, :])
    return _eliminate(sub, rows.shape[1])


def _search(
    g: np.ndarray,
    size: int,
    best: tuple[float, tuple[int, ...]],
    blocks: Iterable[tuple[tuple[int, ...], np.ndarray]],
) -> tuple[float, tuple[int, ...]]:
    """Lower the incumbent ``best`` = (value, witness) over the subsets
    prefix + (tail + r0) of each block (prefix, tails), r0 one past the
    last prefix index. A subset S is skipped when G_S - cI is positive
    definite, c just above the incumbent (see _screen_level), by one Schur
    complement of the prefix block and an LDL' of the tail blocks in
    _CHUNK-row pieces. Survivors get the eigvalsh call of a plain
    enumeration, so the result is that of solving every subset."""
    gmax = float(np.max(np.abs(g)))
    for prefix, tails in blocks:
        q = len(prefix)
        r0 = prefix[-1] + 1 if prefix else 0
        c = _screen_level(best[0], size, gmax)
        head = np.array(prefix, dtype=np.intp)
        span = np.concatenate([head, np.arange(r0, g.shape[0])])
        a = (g.take(span, 0).take(span, 1) - c * np.eye(span.size))[:, :, None]
        schur = a[q:, q:, 0] if _eliminate(a, q)[0] else None
        for lo in range(0, tails.shape[0], _CHUNK):
            rows = tails[lo : lo + _CHUNK].astype(np.intp)
            if schur is not None:
                rows = rows[~_positive_definite_rows(schur, rows)]
                if rows.shape[0] == 0:
                    continue
            idx = np.hstack([np.broadcast_to(head, (rows.shape[0], q)), rows + r0])
            best = min(best, _lowest(g, idx))
    return best


def sparse_eig_exact(
    g: np.ndarray, s: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> SparseEigReport:
    """Exact minimum s-sparse eigenvalue by screened enumeration.

    Only subsets of size k = min(s, p) are candidates (see _subset_size).
    The partner groups of sparse_eig_sampled give the first incumbent.
    For k < p the subsets are grouped by their first q = min(2, k - 2)
    indices, the prefix; the tails of every group come from one colex
    table, and _search screens and solves them. The value and the witness
    (the lexicographically smallest on exact ties) are those of a plain
    enumeration.

    Raises BudgetExceeded when the C(p, k) candidates exceed ``budget``;
    callers should fall back to sparse_eig_sampled.
    """
    p = g.shape[0]
    size = _subset_size(s, p)
    total = math.comb(p, size)
    if total > budget:
        raise BudgetExceeded(f"C({p}, {size}) = {total} subsets > budget {budget}")

    best = _lowest(g, _partner_groups(g, size))
    if size < p:  # at size = p the one subset is range(p), the one group
        q = min(2, max(size - 2, 0))
        m = size - q
        table = _colex_table(p - q, m)
        best = _search(g, size, best, (
            (pre, table[: math.comb(p - (pre[-1] + 1 if pre else 0), m)])
            for pre in itertools.combinations(range(p - m), q)))
    return SparseEigReport(
        s=int(s),
        value=max(best[0], 0.0),
        method="exact",
        witness=best[1],
        subsets_examined=total,
    )


def sparse_eig_sampled(
    g: np.ndarray, s: int, draws: int, seed: int
) -> SparseEigReport:
    """Sampled surrogate: min over random size-s subsets plus, for every
    column, the group of its most-correlated partners.

    The value is an upper bound on the exact phi_min(s) (a minimum over a
    subfamily can only be larger), and is reported as such. The partner
    groups are solved first and give the incumbent; the draws are one
    block for _search, so only the draws its screen cannot clear reach
    eigvalsh. Value and witness (the lexicographically smallest on exact
    ties) are those of solving every group and every draw, and
    ``subsets_examined`` counts that whole sampled family.
    """
    p = g.shape[0]
    size = _subset_size(s, p)
    if draws < 1:
        raise ValueError("draws must be >= 1")

    groups = _partner_groups(g, size)
    best = _lowest(g, groups)
    if size < p:  # at size = p every draw is range(p), the one group
        rng = np.random.default_rng(seed)
        keys = rng.random((draws, p))
        drawn = np.sort(np.argpartition(keys, size - 1, axis=1)[:, :size], axis=1)
        best = _search(g, size, best, [((), drawn)])
    return SparseEigReport(
        s=int(s),
        value=max(best[0], 0.0),
        method="sampled",
        witness=best[1],
        subsets_examined=groups.shape[0] + draws,
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
