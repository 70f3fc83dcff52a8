"""Command-line front end.

Commands: fit, verify, rates, sparse-eig, compare. CSV input uses a
header row with the response in a column named "y" and every other
column treated as a covariate, in header order. JSON reports carry a
schema_version field and use shortest round-trip float formatting, so a
fixed seed yields byte-identical reports.

Exit codes: 0 ok, 2 input/config error, 3 data degeneracy,
4 bound-check failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import theory_bounds
from .core_linalg import (
    Dataset,
    gram,
    least_squares_on_support,
    standardize,
)
from .errors import BudgetExceeded, FwdregError, ZeroVarianceColumn
from .forward_select import FitResult, forward_regression
from .simulate import SimConfig, nested_samples, oracle_threshold, simulate_dataset

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_BOUND_FAILURE = 4


# ---------------------------------------------------------------------------
# I/O helpers


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray, Optional[np.ndarray]]:
    """Read a data CSV: (covariate names, raw design, response or None).

    The response column must be named "y"; if absent, every column is a
    covariate (useful for sparse-eig). A UTF-8 byte-order mark is dropped.
    Cells may be double-quoted, blank (or whitespace-only) lines are
    skipped and "#" is an ordinary character, not a comment. Raises
    ValueError for an empty file, a file without data rows, an empty or
    duplicate column name, a non-numeric or non-finite cell, or a row whose
    width differs from the header or from the rows before it. Row errors
    name the file line, counting every line the header spans.

    Rows stream into the parser, so the text is never held whole. With a
    "y" column the returned arrays are copies and the parsed table is
    freed on return; without one the design is the table itself.

    A regular file with at least 2 * parallel_csv.PARSE_CHUNK_BYTES of
    data rows is parsed in parallel on a Linux-like system (fork,
    memfd_create and sched_getaffinity) with more than one usable CPU,
    when no other Python thread runs: forked children, at most one per
    CPU, each parse a run of whole lines into a memory file while this
    process parses the first run, and the design is assembled one run at
    a time. The result is byte-identical to the serial parse. Any failure
    in a run (a bad, non-finite or ragged cell, a dead child) discards the
    runs and parses the file serially, so errors and their file lines
    come from the serial parse.
    """
    # imported here, so that commands that read no CSV do not load it
    from .parallel_csv import LOADTXT_ARGS, design_and_y, parse_in_parallel

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        start = reader.line_num + 1  # the header may span several lines
        blanks: list[int] = []  # file lines of the skipped blank lines

        def file_line(row: int) -> int:
            """File line of 0-based data row ``row``."""
            line = row + start
            for blank in blanks:
                if blank > line:
                    break
                line += 1
            return line

        def data_lines():
            for num, line in enumerate(fh, start):
                if line.isspace():
                    blanks.append(num)
                else:
                    yield line

        lines = data_lines()
        # checked before parsing, so numpy never warns about empty input
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        header = [h.strip() for h in header]
        if "" in header:
            raise ValueError(f"{path}: empty column name in column {header.index('') + 1}")
        dupes = [h for h, count in Counter(header).items() if count > 1]
        if dupes:
            raise ValueError(f"{path}: duplicate column name {dupes[0]!r}")
        names = [h for h in header if h != "y"]
        yi = header.index("y") if "y" in header else None
        parsed = parse_in_parallel(path, fh.fileno(), reader.line_num, len(header), yi)
        if parsed is not None:
            return (names, *parsed)
        try:
            data = np.loadtxt(itertools.chain([first], lines), **LOADTXT_ARGS)
        except ValueError as exc:
            # loadtxt numbers the rows it was given: 0-based in "at row R,
            # column C" (a bad cell), 1-based in "at row R;" (a ragged row)
            def at_line(m: re.Match) -> str:
                return f"on line {file_line(int(m[1]) - (m[2] is None))}{m[2] or ''}"

            message = re.sub(r"at row (\d+)(, column)?", at_line, str(exc))
            # drop loadtxt's advice to pass `usecols`, which the CLI has no option for
            message = re.sub(r"; use `usecols`.*", "", message)
            raise ValueError(f"{path}: {message}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: row width does not match header")
    # reject NaN and inf here, before any arithmetic can spread them
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value in column {header[col]!r} "
                         f"on line {file_line(row)}")
    del finite  # free the table-sized mask before the design is copied out
    return (names, *design_and_y([data], yi))


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def read_dataset(path: str) -> tuple[list[str], Dataset, np.ndarray, np.ndarray, float]:
    """Read a CSV into a Dataset of standardized covariates and centred "y":
    (names, dataset, column means, column scales, mean of y)."""
    names, x, y = read_csv(path)
    if y is None:
        raise ValueError(f"{path}: no response column named 'y'")
    mean, scale = standardize(x)
    y_mean = float(y.mean())
    return names, Dataset(x=x, y=y - y_mean), mean, scale, y_mean


def _fan_out(worker: Callable, jobs: Sequence, threads: int) -> list:
    """Run ``worker`` on every job over ``threads`` threads. Results come
    back in job order and a worker's error is re-raised, so the thread
    count changes neither the output nor the exit code. One thread is the
    calling thread itself, with no pool and no worker heap."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, jobs))


# ---------------------------------------------------------------------------
# fit


def fit_csv(path: str, t: float) -> dict:
    """Standardize, run forward regression and express coefficients in the
    original units of the input columns."""
    names, ds, mean, scale, y_mean = read_dataset(path)
    fr = forward_regression(ds, t)

    # back-transformation: standardized slope b maps to b / scale in the
    # original units; the intercept restores both the column and y means
    beta = fr.theta_hat / scale
    intercept = y_mean - float(beta @ mean)
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": t,
        "support": list(fr.support),
        "support_names": [names[j] for j in fr.support],
        "coefficients": {names[j]: float(beta[j]) for j in fr.support},
        "intercept": intercept,
        "loss": fr.loss,
        "trace": [{**asdict(s), "name": names[s.index]} for s in fr.trace.steps],
    }


def cmd_fit(args: argparse.Namespace) -> int:
    report = fit_csv(args.input, args.threshold)
    write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def default_phi_size(cfg: SimConfig) -> int:
    """Sparse-eigenvalue size behind the oracle threshold: twice the true
    support size, capped at p."""
    return min(cfg.p, max(2 * cfg.s0, 1))


def _verify_one(cfg: SimConfig, rep: int, safety: float, phi_size: int) -> dict:
    rep_cfg = replace(cfg, seed=cfg.seed + rep)
    ds = simulate_dataset(rep_cfg)
    g = gram(ds.x)
    eig = theory_bounds.exact_eig_source(g)
    phi = eig(phi_size).value
    t = oracle_threshold(ds, phi, safety=safety)
    fr = forward_regression(ds, t)

    s0_support = set(np.flatnonzero(ds.theta0).tolist())
    bounds = theory_bounds.verify_theorem1(fr, ds, t, eig)
    l2_ok, l1_ok = theory_bounds.verify_theorem3(fr, ds, eig)
    return {
        "seed": rep_cfg.seed,
        "t": t,
        "s_hat": fr.s_hat,
        "n_true_selected": len(set(fr.support) & s0_support),
        "n_false_selected": len(set(fr.support) - s0_support),
        "pred_error_norm": fr.pred_error_norm,
        "l1_error": fr.l1_error,
        "l2_error": fr.l2_error,
        **asdict(bounds),
        "count_bound_holds": all(c.holds for c in bounds.c2_of_m),
        "theorem3_l2_ok": l2_ok,
        "theorem3_l1_ok": l1_ok,
    }


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
    """Simulate, fit and bound-check ``replications`` seeds.

    Returns (report, all_bounds_hold). Replications are independent given
    their seeds, so thread scheduling cannot change the report.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    phi_size = default_phi_size(cfg) if phi_size is None else phi_size
    if phi_size < 1:
        raise ValueError("phi_size must be >= 1")

    def worker(rep: int) -> dict:
        return _verify_one(cfg, rep, safety, phi_size)

    try:
        records = _fan_out(worker, range(replications), threads)
    except BudgetExceeded as exc:
        # phi(phi_size) is looked up first, so a refusal at its size is that lookup
        cut = (f"--phi-size (now {phi_size}) or p" if exc.size == min(phi_size, cfg.p)
               else f"p or s0 ({exc.size} is a bound-check size, s_hat + s0 or m + s0)")
        raise BudgetExceeded(f"{exc}; the bound checks take exact phi_min only, so "
                             f"verify needs a smaller {cut}", exc.size) from None

    all_pass = all(
        r["pred_bound_holds"] and r["count_bound_holds"]
        and r["theorem3_l2_ok"] and r["theorem3_l1_ok"]
        for r in records
    )
    report = {
        "schema_version": SCHEMA_VERSION,
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


def load_sim_config(path: str, seed: Optional[int]) -> SimConfig:
    """Read a SimConfig JSON file; a ``seed`` other than None replaces its seed."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        cfg = SimConfig(**payload)
    except TypeError as exc:
        raise ValueError(f"{path}: bad SimConfig ({exc})") from None
    return cfg if seed is None else replace(cfg, seed=seed)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config, args.seed)
    report, all_pass = run_verify(
        cfg,
        replications=args.replications,
        safety=args.safety,
        phi_size=args.phi_size,
        threads=args.threads,
    )
    write_json(args.out, report)
    if not all_pass:
        print("bound check failed on at least one replication", file=sys.stderr)
        return EXIT_BOUND_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# rates


def run_rates(
    cfg: SimConfig,
    n_grid: Sequence[int],
    replications: int,
    safety: float = 1.1,
    threads: int = 1,
) -> dict:
    """Sweep n at fixed p, s0 and regress log median error on log n.

    Each replication draws one dataset at the largest n, and every grid
    point fits its leading rows (common random numbers), so the largest
    point fits the draw itself. The points are fitted largest first, each
    on the draw's rows standardized again in place (see
    simulate.nested_samples), so a replication holds one design and copies
    no rows; the results come back in grid order. A fit error is raised for
    the smallest n at which one occurs, as an ascending walk would meet it
    first. Sparse eigenvalues for the threshold use the sampled surrogate,
    since exact enumeration is infeasible at sweep-scale p.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if len(n_grid) < 4 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be increasing with at least 4 points")
    if n_grid[0] < 2:
        raise ValueError(f"n_grid entries must be >= 2, got {n_grid[0]}")
    phi_size = default_phi_size(cfg)
    # replication r draws at base_seed + r; the offset keeps the data of
    # seeded sweeps from when every grid point had a seed of its own
    base_seed = cfg.seed + 1_000_003 * (len(n_grid) - 1)

    def fit(ds: Dataset) -> tuple[float, int]:
        phi = theory_bounds.sparse_eig_sampled(gram(ds.x), phi_size).value
        t = oracle_threshold(ds, phi, safety=safety)
        fr = forward_regression(ds, t)
        return fr.pred_error_norm, fr.s_hat

    def worker(rep: int) -> list[tuple[float, int]]:
        draw = replace(cfg, n=n_grid[-1], seed=base_seed + rep)
        fits, failure = [], None
        for ds in nested_samples(draw, n_grid):
            try:
                fits.append(fit(ds))
            except FwdregError as exc:
                failure = exc  # a smaller n's failure replaces a larger one's
        if failure is not None:
            raise failure
        return fits[::-1]

    # results[rep][gi]
    results = _fan_out(worker, range(replications), threads)

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


def cmd_rates(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config, args.seed)
    summary = run_rates(
        cfg,
        n_grid=args.n_grid,
        replications=args.replications,
        safety=args.safety,
        threads=args.threads,
    )
    rows = summary["rows"]
    write_csv(args.out, list(rows[0]), [list(r.values()) for r in rows])
    # the thresholds come from the sampled phi, an upper bound on phi_min
    print(json.dumps({"slope": summary["slope"],
                      "slope_flag": summary["slope_flag"],
                      "phi_upper_bound_only": True}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sparse-eig


def cmd_sparse_eig(args: argparse.Namespace) -> int:
    names, x, _y = read_csv(args.input)
    if not names:  # a lone "y" column
        raise ValueError("need at least one observation and one covariate")
    standardize(x)
    g = gram(x)
    try:
        rep = theory_bounds.sparse_eig_exact(g, args.s)
    except BudgetExceeded:
        # refused from C(p, k) before any work: report the upper bound instead
        rep = theory_bounds.sparse_eig_sampled(g, args.s)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **asdict(rep),
        "witness_names": [names[j] for j in rep.witness],
        "upper_bound_only": rep.method == "sampled",
    }
    write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def compare_csv(path: str, t: float, k: Optional[int] = None) -> dict:
    """Greedy-vs-exhaustive comparison at equal support size.

    The greedy support is the first k forward selections (k defaults to
    the full selected size), refit by least squares; the exhaustive side
    is the best size-k subset. k must lie in 0..s_hat, the sizes the
    greedy side has; this is checked before the exhaustive search.
    """
    from . import oracle  # imported here, so that the other commands do not load it
    names, ds, *_moments = read_dataset(path)
    fr = forward_regression(ds, t)
    k = fr.s_hat if k is None else int(k)
    if not 0 <= k <= fr.s_hat:
        raise ValueError(
            f"k must be between 0 and the selected size {fr.s_hat}, got {k}"
        )

    greedy_support = tuple(sorted(s.index for s in fr.trace.steps[:k]))
    _theta, greedy_loss = least_squares_on_support(ds, greedy_support)
    best_support, best_loss = oracle.best_subset(ds, k)
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": t,
        "k": k,
        "greedy_support": list(greedy_support),
        "greedy_support_names": [names[j] for j in greedy_support],
        "greedy_loss": greedy_loss,
        "best_subset_support": list(best_support),
        "best_subset_support_names": [names[j] for j in best_support],
        "best_subset_loss": best_loss,
        "greedy_gap": greedy_loss - best_loss,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    report = compare_csv(args.input, args.threshold, args.k)
    write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def _n_grid(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwdreg",
        description="Thresholded forward regression with bound diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several commands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", "-o", required=True, help="output path")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", "-i", required=True)
    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument("--threshold", "-t", type=float, required=True)
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--config", required=True, help="SimConfig JSON path")
    sim.add_argument("--replications", type=int, default=100)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--safety", type=float, default=1.1)

    fit = sub.add_parser("fit", parents=[data, threshold, out],
                         help="fit a CSV dataset by forward regression")
    fit.set_defaults(func=cmd_fit)

    verify = sub.add_parser("verify", parents=[sim, out],
                            help="simulate and check prediction/selection bounds")
    verify.add_argument("--phi-size", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    rates = sub.add_parser("rates", parents=[sim, out],
                           help="error-rate sweep over sample sizes")
    rates.add_argument("--n-grid", type=_n_grid, required=True,
                       help="comma list, e.g. 200,400,800,1600")
    rates.set_defaults(func=cmd_rates)

    eig = sub.add_parser("sparse-eig", parents=[data, out],
                         help="minimum sparse eigenvalue of the Gram matrix; an upper "
                              "bound when C(p, s) is over the enumeration budget")
    eig.add_argument("--s", type=int, required=True)
    eig.set_defaults(func=cmd_sparse_eig)

    compare = sub.add_parser("compare", parents=[data, threshold, out],
                             help="greedy vs exhaustive best subset")
    compare.add_argument("--k", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroVarianceColumn as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (FwdregError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
