"""Simulation experiments: ``fit_record``, one fit at the oracle threshold,
run by ``replicate`` over replications and a grid of n. ``run_verify`` is
that loop at the one grid point cfg.n with the exact phi, ``run_rates``
over a grid with the sampled phi."""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import parallel, theory_bounds
from .core_linalg import Dataset, gram
from .errors import BudgetExceeded, FwdregError
from .forward_select import forward_regression
from .simulate import SimConfig, nested_samples, oracle_threshold
from .theory_bounds import BoundReport, EigSource, verify_theorem1


def default_phi_size(cfg: SimConfig) -> int:
    """Sparse-eigenvalue size behind the oracle threshold: twice the true
    support size, capped at p."""
    return min(cfg.p, max(2 * cfg.s0, 1))


def fit_record(ds: Dataset, eig: EigSource, safety: float,
               phi_size: int) -> tuple[dict, Optional[BoundReport]]:
    """Fit ``ds`` at the oracle threshold from phi(phi_size) of ``eig``, a
    size -> SparseEigReport lookup on its Gram matrix: the record of t, the
    fit's selection counts and errors and, with an exact phi, the fields of
    the fit's BoundReport, returned too; a phi whose interval has
    lower < value is not certified, so it supports no bound check and the
    report is None."""
    rep = eig(phi_size)
    t = oracle_threshold(ds, rep.value, safety=safety)
    fr = forward_regression(ds, t)
    s0_support = set(np.flatnonzero(ds.theta0).tolist())
    record = {
        "t": t,
        "s_hat": fr.s_hat,
        "n_true_selected": len(set(fr.support) & s0_support),
        "n_false_selected": len(set(fr.support) - s0_support),
        "pred_error_norm": fr.pred_error_norm,
        "l1_error": fr.l1_error,
        "l2_error": fr.l2_error,
    }
    if rep.lower < rep.value:
        return record, None
    bounds = verify_theorem1(fr, ds, t, eig)
    return {**record, **asdict(bounds)}, bounds


def replicate(cfg: SimConfig, n_grid: Sequence[int], replications: int,
              threads: int, job: Callable[[Dataset], Any]) -> list[list]:
    """``results[rep][gi]``, ``job`` on replication rep's data at n_grid[gi].

    Replication r draws one dataset at the largest n and seed
    cfg.seed + 1,000,003 * (len(n_grid) - 1) + r, so at one grid point
    simulate_dataset's at seed cfg.seed + r. Every grid point takes its
    leading rows (common random numbers), largest first, standardized
    again in place (see simulate.nested_samples), so a replication holds
    one design and copies no rows. A job's FwdregError is raised for the
    smallest n at which one occurs, as an ascending walk would meet it
    first. Replications are fanned out over up to ``threads`` processes
    (parallel.fan_out); the process count cannot change the results.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    # the offset keeps the data of seeded sweeps from when every grid
    # point had a seed of its own
    base_seed = cfg.seed + 1_000_003 * (len(n_grid) - 1)

    def worker(rep: int) -> list:
        draw = replace(cfg, n=n_grid[-1], seed=base_seed + rep)
        results, failure = [], None
        for ds in nested_samples(draw, n_grid):
            try:
                results.append(job(ds))
            except FwdregError as exc:
                failure = exc  # a smaller n's failure replaces a larger one's
        if failure is not None:
            raise failure
        return results[::-1]

    return parallel.fan_out(worker, range(replications), threads)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """The q-quantile of a sorted float array by numpy's default "linear"
    rule, bit-equal to np.quantile, whose first call imports numpy.ma."""
    if np.isnan(ordered[-1]):
        return math.nan
    pos = (ordered.size - 1) * q
    lo = math.floor(pos)
    a, b = ordered[lo], ordered[min(lo + 1, ordered.size - 1)]
    t = pos - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _median(values: Sequence[float]) -> float:
    """Bit-equal to np.median, without its first-call import of numpy.ma."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if np.isnan(ordered[-1]):
        return math.nan
    # the middle value, or the mean of the middle two
    return float(np.mean(ordered[(ordered.size - 1) // 2:ordered.size // 2 + 1]))


def _median_iqr(values: list[float]) -> dict:
    ordered = np.sort(np.asarray(values, dtype=float))
    q1, med, q3 = (_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
    return {"median": med, "iqr": q3 - q1}


def run_verify(
    cfg: SimConfig,
    replications: int,
    safety: float = 1.1,
    phi_size: Optional[int] = None,
    threads: int = 1,
) -> tuple[dict, bool]:
    """Simulate, fit and bound-check ``replications`` seeds with the exact
    phi: (report, all_bounds_hold). This is replicate at the one grid point
    cfg.n, so replication r fits the draw at seed cfg.seed + r."""
    phi_size = default_phi_size(cfg) if phi_size is None else phi_size
    if phi_size < 1:
        raise ValueError("phi_size must be >= 1")

    def job(ds: Dataset) -> tuple[dict, BoundReport]:
        return fit_record(ds, theory_bounds.exact_eig_source(gram(ds.x)), safety, phi_size)

    try:
        results = replicate(cfg, [cfg.n], replications, threads, job)
    except BudgetExceeded as exc:
        # phi(phi_size) is looked up first, so a refusal at its size is that lookup
        cut = (f"--phi-size (now {phi_size}) or p" if exc.size == min(phi_size, cfg.p)
               else f"p or s0 ({exc.size} is a bound-check size, s_hat + s0 or m + s0)")
        raise BudgetExceeded(f"{exc}; the bound checks take exact phi_min only, so "
                             f"verify needs a smaller {cut}", exc.size) from None

    records = [{"seed": cfg.seed + r, **record} for r, [(record, _)] in enumerate(results)]
    all_pass = all(bounds.holds for [(_, bounds)] in results)
    report = {
        "config": asdict(cfg),
        "replications": replications,
        "safety": safety,
        "phi_size": phi_size,
        "records": records,
        "aggregates": {
            key: _median_iqr([r[key] for r in records])
            for key in ("s_hat", "pred_error_norm", "l1_error", "l2_error")
        },
        "all_bounds_hold": all_pass,
    }
    return report, all_pass


def run_rates(
    cfg: SimConfig,
    n_grid: Sequence[int],
    replications: int,
    safety: float = 1.1,
    threads: int = 1,
) -> dict:
    """Sweep n at fixed p, s0 (replicate over ``n_grid``) and regress log
    median error on log n. Sparse eigenvalues for the threshold use the
    sampled surrogate, since exact enumeration is infeasible at
    sweep-scale p, so no bound is checked."""
    if len(n_grid) < 4 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be increasing with at least 4 points")
    if n_grid[0] < 2:
        raise ValueError(f"n_grid entries must be >= 2, got {n_grid[0]}")
    phi_size = default_phi_size(cfg)

    def job(ds: Dataset) -> tuple[float, int]:
        eig = partial(theory_bounds.sparse_eig_sampled, gram(ds.x))
        record, _ = fit_record(ds, eig, safety, phi_size)
        return record["pred_error_norm"], record["s_hat"]

    results = replicate(cfg, n_grid, replications, threads, job)

    rows = []
    for gi, n in enumerate(n_grid):
        chunk = [fits[gi] for fits in results]
        rows.append(
            {
                "n": n,
                "median_pred_error_norm": _median([c[0] for c in chunk]),
                "median_s_hat": _median([c[1] for c in chunk]),
            }
        )

    errors = [r["median_pred_error_norm"] for r in rows]
    if min(errors) < 1e-14:
        slope = None
        slope_flag = "degenerate: median error is numerically zero"
    else:
        slope = float(
            np.polyfit(np.log([r["n"] for r in rows]), np.log(errors), 1)[0]
        )
        slope_flag = None
    return {"rows": rows, "slope": slope, "slope_flag": slope_flag}
