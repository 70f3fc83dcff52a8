"""Sparse eigenvalues of the Gram matrix and finite-sample bound constants.

Computes the minimum s-sparse eigenvalue (exactly by subset enumeration,
or as an upper bound from a local search), the bound constants that
combine it with the threshold and the noise-covariate correlation, and
end-to-end checks of the prediction-error, selection-count and
parameter-error bounds on a fitted instance with known ground truth.
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

# Float64 entries in each working array of _search: a batch of prefix
# blocks, or the gathered tail blocks of one piece. A batch, a piece and
# the temporaries of their LDL' then stay well inside a 2 MiB L2 cache;
# below about 60,000 entries the enumeration gets slower.
_CHUNK = 60_000

# Keys that _smallest partitions at a time.
_PARTITION_ENTRIES = 10_000

# Partner groups solved by eigvalsh for the first incumbent; the other
# groups are screened against it.
_SEED_GROUPS = 8

# The one empty prefix of a _search block whose tails are whole subsets.
_NO_PREFIX = np.zeros((1, 0), dtype=np.intp)


@dataclass(frozen=True)
class SparseEigReport:
    """Minimum sparse eigenvalue over subsets of size <= s.

    ``method`` is "exact" (true minimum, witness achieves it) or "sampled"
    (the smallest eigenvalue of the witness found by a local search, hence
    an UPPER bound on the truth).
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
    re-checked inside ``c2_of_m``.
    """

    c1: float
    c2_of_m: tuple[C2Check, ...]
    threshold_ok: bool
    noise_sup: float
    pred_bound_holds: bool


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


def _abs_max(g: np.ndarray) -> float:
    """The largest |g_ij|, without a p x p temporary for |G|."""
    return float(max(g.max(), -g.min()))


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


def _smallest(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``keys``,
    ascending within the row; ties go to the lower index. np.partition
    finds each row's k-th smallest value v, on at most _PARTITION_ENTRIES
    keys at a time, so no partitioned copy of ``keys`` is held. A mask keeps
    the entries <= v in place, so flatnonzero returns every row sorted.
    Every row keeps at least k entries; a row with more (a tie at v) keeps
    only the first of those equal to v."""
    rows, p = keys.shape
    kth = np.empty((rows, 1))
    step = max(1, _PARTITION_ENTRIES // p)
    for lo in range(0, rows, step):
        kth[lo : lo + step, 0] = np.partition(keys[lo : lo + step], k - 1, axis=1)[:, k - 1]
    keep = keys <= kth
    if np.count_nonzero(keep) > rows * k:
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        below = keys[over] < kth[over]
        tied = keep[over] & ~below
        room = k - np.count_nonzero(below, axis=1)
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return (np.flatnonzero(keep) % p).reshape(rows, k)


def _partner_groups(g: np.ndarray, size: int) -> np.ndarray:
    """For every column j, j and its size - 1 most-correlated partners
    (largest |g_jk|, ties to the lower index), sorted; one row per column.
    The diagonal key is -inf, so each row's smallest keys hold j itself.
    The only group is range(p) when size = p."""
    p = g.shape[0]
    if size == p:
        return np.arange(p, dtype=np.intp)[None, :]
    keys = np.abs(g)
    np.negative(keys, out=keys)
    np.fill_diagonal(keys, -np.inf)
    return _smallest(keys, size)


def _seed_split(g: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(seed, rest): the _SEED_GROUPS rows of ``groups`` with the largest
    sum of |G_S| over the group's submatrix (ties to the lower row), and
    the other rows. Strongly correlated groups tend to have a small
    lambda_min, so solving the seed alone gives an incumbent that screens
    most of the rest; the choice changes only the work, not the result."""
    if groups.shape[0] <= _SEED_GROUPS:
        return groups, groups[:0]
    block = g[groups[:, :, None], groups[:, None, :]]
    weight = np.abs(block, out=block).sum(axis=(1, 2))
    pick = _smallest(-weight[None, :], _SEED_GROUPS)[0]
    rest = np.ones(groups.shape[0], dtype=bool)
    rest[pick] = False
    return groups[pick], groups[rest]


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
    blocks over the (tail, prefix) pairs, a piece at a time. _CHUNK counts
    float64 entries: a batch holds _CHUNK // span^2 prefixes, each a
    span x span block (span = q + p - r0), and a piece _CHUNK // (m^2 w)
    tails for the w prefixes of its batch, so each holds at most _CHUNK
    entries unless one prefix or pair alone is larger. The one empty
    prefix has no Schur complement, so its tail blocks are gathered from g
    itself and c is taken off their diagonals. Survivors get the eigvalsh
    call of a plain enumeration, so the result is that of solving every
    subset; the split into batches and pieces changes only the work."""
    p = g.shape[0]
    gmax = _abs_max(g)
    for heads, tails in blocks:
        q, m = heads.shape[1], tails.shape[1]
        r0 = int(heads[0, -1]) + 1 if q else 0
        span = q + p - r0
        diag = np.arange(span)
        tail_rows = np.arange(r0, p)
        per_batch = max(1, _CHUNK // (span * span))
        for lo in range(0, heads.shape[0], per_batch):
            batch = heads[lo : lo + per_batch].astype(np.intp)
            width = batch.shape[0]
            level = _screen_level(best[0], size, gmax)
            if q:
                a = np.empty((span, span, width))
                a[:q, :q] = g[batch.T[:, None, :], batch.T]
                a[:q, q:] = g[batch.T[:, None, :], tail_rows[:, None]]
                a[q:, :q] = g[tail_rows[:, None, None], batch.T]
                a[q:, q:] = g[r0:, r0:, None]
                a[diag, diag] -= level
                heads_ok = _eliminate(a, q)
                entries = a.reshape(span * span, width)
            else:
                heads_ok = np.ones(1, dtype=bool)
            per_piece = max(1, _CHUNK // (m * m * width))
            for t0 in range(0, tails.shape[0], per_piece):
                # one tail per column, so every gathered block is contiguous
                piece = tails[t0 : t0 + per_piece].T.astype(np.intp, order="C")
                if q:
                    at = piece + q
                    sub = entries[at[:, None, :] * span + at].reshape(m, m, -1)
                else:
                    sub = g[piece[:, None, :], piece]
                    sub[diag[:m], diag[:m]] -= level
                ok = _eliminate(sub, m)
                del sub  # before the next piece is gathered
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
    The seed partner groups of sparse_eig_sampled (see _seed_split) give
    the first incumbent; the enumeration visits every other group anyway.
    For k < p the subsets are split into a prefix of their first
    q = max(k - 3, 0) indices and a tail of the rest, at most three. Each
    block of _search holds every prefix ending at r0 - 1 with every tail
    in r0..p-1; both come from colex tables, whose m-subsets of range(n')
    are the first C(n', m) rows. The value and the witness (the
    lexicographically smallest on exact ties) are those of a plain
    enumeration.

    Raises BudgetExceeded when the C(p, k) candidates exceed ``budget``.
    """
    p = g.shape[0]
    size = _subset_size(s, p)
    total = math.comb(p, size)
    if total > budget:
        raise BudgetExceeded(f"C({p}, {size}) = {total} subsets > budget {budget}", size)

    best = _lowest(g, _seed_split(g, _partner_groups(g, size))[0])
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


def _descend(
    g: np.ndarray, size: int, best: tuple[float, tuple[int, ...]]
) -> tuple[tuple[float, tuple[int, ...]], int]:
    """Lower the incumbent ``best`` = (value, witness) by single swaps,
    and count the subsets solved on the way.

    With v the unit eigenvector of lambda = lambda_min(G_S), u_i is v with
    the entry of i in S zeroed and m_i = |u_i|^2. The Rayleigh quotient of
    G over span{u_i, e_o} bounds lambda_min(G_{S - i + o}) from above by
    the smaller eigenvalue of [[a_i / m_i, b_io / sqrt(m_i)],
    [b_io / sqrt(m_i), g_oo]], with a_i = u_i' G_S u_i and
    b_io = (G u_i)_o (Moghaddam, Weiss & Avidan 2006). One k x p product
    gives all k(p - k) bounds; an i with m_i = 0 has no trial vector but
    e_o and is left out, without dividing by m_i. The swap with the
    smallest bound is solved, bounds within the rounding margin of the
    smallest counting as tied, with ties to the lowest (o, i). It is made
    when its lambda, from the same eigh as the incumbent's, lies below the
    incumbent's by more than the margin of _screen_level. So every move
    lowers lambda by at least that margin, no subset comes back and the
    descent ends. The value of a witness the descent leaves unchanged is
    the one it came with."""
    gmax = _abs_max(g)
    diag = np.diagonal(g)
    s = np.array(best[1], dtype=np.intp)
    lams, vecs = np.linalg.eigh(g[s][:, s])
    lam, v = float(lams[0]), vecs[:, 0]
    solved = 0
    while True:
        u = np.repeat(v[None, :], size, axis=0)
        np.fill_diagonal(u, 0.0)  # row i is u_i
        gu = u @ g[s]  # row i is (G u_i)'
        m = np.einsum("ij,ij->i", u, u)
        a = np.einsum("ij,ij->i", u, gu[:, s])
        ok = m > 0
        m = np.where(ok, m, 1.0)[:, None]
        alpha = a[:, None] / m
        half = 0.5 * (alpha - diag)
        bound = alpha - half - np.sqrt(half * half + gu * gu / m)
        bound[~ok] = np.inf
        bound[:, s] = np.inf
        tol = _screen_level(lam, size, gmax) - lam
        low = float(bound.min())
        if not low < lam - tol:
            break
        # nonzero walks the transpose with o major, so its first hit is the
        # lowest (o, i)
        o, i = (int(k[0]) for k in np.nonzero(((bound <= low + tol) & (bound < lam - tol)).T))
        trial = s.copy()
        trial[i] = o
        trial.sort()
        lams, vecs = np.linalg.eigh(g[trial][:, trial])
        solved += 1
        if not lams[0] < lam - tol:
            break
        s, lam, v = trial, float(lams[0]), vecs[:, 0]
        best = (lam, tuple(int(j) for j in s))
    return best, solved


def sparse_eig_sampled(g: np.ndarray, s: int) -> SparseEigReport:
    """Deterministic surrogate: min over, for every column, the group of
    its most-correlated partners, lowered by an exchange descent.

    The value is an upper bound on the exact phi_min(s), since it is the
    smallest eigenvalue of one size-k submatrix, and is reported as such.
    The _SEED_GROUPS groups of largest sum |G_S| are solved first and give
    the incumbent (see _seed_split), and the other groups are one block for
    _search, which yields the minimum over all groups with the
    lexicographically smallest witness on exact ties. One chain of
    _descend then starts from that witness. ``subsets_examined`` counts the
    groups and the subsets the descent solved.
    """
    p = g.shape[0]
    size = _subset_size(s, p)

    groups = _partner_groups(g, size)
    seed_groups, rest = _seed_split(g, groups)
    best = _lowest(g, seed_groups)
    solved = 0
    if size < p:  # at size = p the one subset is range(p), the one group
        best = _search(g, size, best, [(_NO_PREFIX, rest)])
        best, solved = _descend(g, size, best)
    return SparseEigReport(
        s=int(s),
        value=max(best[0], 0.0),
        method="sampled",
        witness=best[1],
        subsets_examined=groups.shape[0] + solved,
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


def _exact_eig(eig: EigSource, size: int) -> SparseEigReport:
    """The exact phi_min(max(size, 1)) from ``eig``; any other method raises."""
    rep = eig(max(size, 1))
    if rep.method != "exact":
        raise ValueError(f"bound checks need the exact phi_min({rep.s}), not a "
                         f"{rep.method} one: a sampled phi only upper-bounds phi_min")
    return rep


def _fit_size_eig(
    fr: FitResult, ds: Dataset, eig: EigSource
) -> tuple[SparseEigReport, set[int]]:
    """phi_min(max(s_hat + s0, 1)), at which the prediction and
    parameter-error bounds are evaluated, and the true support."""
    if ds.theta0 is None or fr.pred_error_norm is None:
        raise MissingGroundTruth("bound checks need theta0 and pred_error_norm")
    s0_support = set(np.flatnonzero(ds.theta0).tolist())
    s0 = len(s0_support)
    rep = _exact_eig(eig, fr.s_hat + s0)
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
    beyond the algorithm itself, and every phi is exact (see _exact_eig),
    so any failure is an implementation bug. The count bound
    m <= c2(m) * s0 is checked for every m up to the number of false
    selections whose threshold premise holds at phi_min(m + s0).
    """
    noise_sup = noise_covariate_sup(ds)
    pred_rep, s0_support = _fit_size_eig(fr, ds, eig)
    s0 = len(s0_support)
    c1 = constant_c1(fr.s_hat, s0, pred_rep.value, noise_sup, t)
    pred_bound_holds = fr.pred_error_norm <= c1

    m_max = len(set(fr.support) - s0_support)
    checks: list[C2Check] = []
    threshold_ok = False
    for m in range(m_max + 1):
        rep = _exact_eig(eig, m + s0)
        if not threshold_condition(t, rep.value, noise_sup):
            continue
        if m == 0:
            threshold_ok = True
        c2 = constant_c2(rep.value)
        checks.append(C2Check(m=m, c2=c2, holds=m <= c2 * s0))

    return BoundReport(
        c1=c1,
        c2_of_m=tuple(checks),
        threshold_ok=threshold_ok,
        noise_sup=noise_sup,
        pred_bound_holds=pred_bound_holds,
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
