"""Sparse eigenvalues of the Gram matrix and finite-sample bound constants.

Computes the minimum s-sparse eigenvalue (exactly by subset enumeration,
or as a sampled upper bound), the bound constants that combine it with
the threshold and the noise-covariate correlation, and end-to-end checks
of the prediction-error, selection-count and parameter-error bounds on a
fitted instance with known ground truth.
"""

from __future__ import annotations

import functools
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

# The one empty prefix of a _search block whose tails are whole subsets.
_NO_PREFIX = np.zeros((1, 0), dtype=np.intp)


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
    in a[steps:, steps:]; per matrix, whether every pivot was > 0. A
    matrix is left as it is from its first pivot <= 0 on, so its entries
    cannot grow into an overflow. The batch axis is last, so each step
    works on contiguous vectors."""
    ok = np.ones(a.shape[2], dtype=bool)
    for j in range(steps):
        ok &= a[j, j] > 0
        ratio = a[j + 1 :, j] / np.where(ok, a[j, j], np.inf)
        a[j + 1 :, j + 1 :] -= ratio[:, None] * a[None, j, j + 1 :]
    return ok


def _search(
    g: np.ndarray,
    size: int,
    best: tuple[float, tuple[int, ...]],
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, tuple[int, ...]]:
    """Lower the incumbent ``best`` = (value, witness) over the subsets
    head + (tail + r0) of each block (heads, tails): every row of heads is
    a prefix ending at r0 - 1 (r0 = 0 for one empty prefix), and every
    row of tails an index set within range(p - r0). A subset S is skipped
    when G_S - cI is positive definite, c just above the incumbent (see
    _screen_level). One _eliminate over a batch of prefixes gives their
    Schur complements on r0..p-1, and one more runs the LDL' of the tail
    blocks over the (tail, prefix) pairs in pieces of at most _CHUNK
    pairs; a prefix batch holds no more entries than a piece's _CHUNK
    tail blocks. Survivors get the eigvalsh call of a plain enumeration, so
    the result is that of solving every subset."""
    p = g.shape[0]
    gmax = float(np.max(np.abs(g)))
    for heads, tails in blocks:
        q, m = heads.shape[1], tails.shape[1]
        r0 = int(heads[0, -1]) + 1 if q else 0
        span = q + p - r0
        diag = np.arange(span)
        tail_rows = np.arange(r0, p)
        per_batch = max(1, _CHUNK * m * m // (span * span))
        for lo in range(0, heads.shape[0], per_batch):
            batch = heads[lo : lo + per_batch].astype(np.intp)
            width = batch.shape[0]
            a = np.empty((span, span, width))
            a[:q, :q] = g[batch.T[:, None, :], batch.T]
            a[:q, q:] = g[batch.T[:, None, :], tail_rows[:, None]]
            a[q:, :q] = g[tail_rows[:, None, None], batch.T]
            a[q:, q:] = g[r0:, r0:, None]
            a[diag, diag] -= _screen_level(best[0], size, gmax)
            heads_ok = _eliminate(a, q)
            entries = a.reshape(span * span, width)
            per_piece = max(1, _CHUNK // width)
            for t0 in range(0, tails.shape[0], per_piece):
                # one tail per column, so every gathered block is contiguous
                piece = tails[t0 : t0 + per_piece].T.astype(np.intp, order="C")
                at = piece + q
                ok = _eliminate(entries[at[:, None, :] * span + at].reshape(m, m, -1), m)
                t, b = np.nonzero(~(ok.reshape(-1, width) & heads_ok))
                if t.size:
                    idx = np.hstack([batch[b], piece[:, t].T + r0])
                    best = min(best, _lowest(g, idx))
    return best


def sparse_eig_exact(
    g: np.ndarray, s: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> SparseEigReport:
    """Exact minimum s-sparse eigenvalue by screened enumeration.

    Only subsets of size k = min(s, p) are candidates (see _subset_size).
    The partner groups of sparse_eig_sampled give the first incumbent.
    For k < p the subsets are split into a prefix of their first
    q = max(k - 3, 0) indices and a tail of the rest, at most three. Each
    block of _search holds every prefix ending at r0 - 1 with every tail
    in r0..p-1; both come from colex tables, whose m-subsets of range(n')
    are the first C(n', m) rows. The value and the witness (the
    lexicographically smallest on exact ties) are those of a plain
    enumeration.

    Raises BudgetExceeded when the C(p, k) candidates exceed ``budget``;
    callers should fall back to sparse_eig_sampled.
    """
    p = g.shape[0]
    size = _subset_size(s, p)
    total = math.comb(p, size)
    if total > budget:
        raise BudgetExceeded(
            f"C({p}, {size}) = {total} subsets > budget {budget}; sparse_eig_sampled "
            f"(sparse-eig --mode sampled) gives an upper bound without a budget"
        )

    best = _lowest(g, _partner_groups(g, size))
    if size < p:  # at size = p the one subset is range(p), the one group
        q = max(size - 3, 0)
        m = size - q
        tails = _colex_table(p - q, m)
        if q == 0:
            blocks = [(_NO_PREFIX, tails)]
        else:
            # the prefixes ending at r0 - 1 are rows C(r0 - 1, q)..C(r0, q) - 1
            heads = _colex_table(p - m, q)
            blocks = ((heads[math.comb(r0 - 1, q) : math.comb(r0, q)],
                       tails[: math.comb(p - r0, m)]) for r0 in range(q, p - m + 1))
        best = _search(g, size, best, blocks)
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
        best = _search(g, size, best, [(_NO_PREFIX, drawn)])
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
    return functools.cache(functools.partial(sparse_eig_exact, g))


def _fit_size_eig(
    fr: FitResult, ds: Dataset, eig: EigSource
) -> tuple[SparseEigReport, set[int]]:
    """phi_min(max(s_hat + s0, 1)), at which the prediction and
    parameter-error bounds are evaluated, and the true support."""
    if ds.theta0 is None or fr.pred_error_norm is None:
        raise MissingGroundTruth("bound checks need theta0 and pred_error_norm")
    s0_support = set(np.flatnonzero(ds.theta0).tolist())
    s0 = len(s0_support)
    rep = eig(max(fr.s_hat + s0, 1))
    if rep.value <= 0:
        raise NonpositiveEigenvalue(
            f"minimum sparse eigenvalue phi = {rep.value} at size {rep.s} "
            f"(s_hat = {fr.s_hat}, s0 = {s0}) is not positive, so the bounds at that "
            f"size are undefined (n = {ds.n}; phi is 0 at every subset size >= n)")
    return rep, s0_support


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
    noise_sup = noise_covariate_sup(ds)
    pred_rep, s0_support = _fit_size_eig(fr, ds, eig)
    s0 = len(s0_support)
    c1 = constant_c1(fr.s_hat, s0, pred_rep.value, noise_sup, t)
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


def verify_theorem3(fr: FitResult, ds: Dataset, eig: EigSource) -> tuple[bool, bool]:
    """Check the chained parameter-error inequalities
    l1 <= sqrt(s_hat + s0) * l2 <= sqrt(s_hat + s0) * phi^{-1} * pred_norm,
    with phi = phi_min(max(s_hat + s0, 1)) looked up in ``eig``.
    """
    if fr.l1_error is None or fr.l2_error is None:
        raise MissingGroundTruth("fit result carries no parameter errors")
    rep, _s0_support = _fit_size_eig(fr, ds, eig)
    root = math.sqrt(rep.s)
    slack = lambda v: v * (1.0 + THEOREM3_RTOL) + 1e-15  # noqa: E731
    l1_ok = fr.l1_error <= slack(root * fr.l2_error)
    l2_ok = root * fr.l2_error <= slack(root / rep.value * fr.pred_error_norm)
    return l2_ok, l1_ok
