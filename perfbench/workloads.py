"""Benchmark workloads: seeded inputs, the CLI call, and output checks.

Each workload turns ``--seed`` into input files before any timing starts;
the program under test only ever sees those files. ``prepare`` returns a
``Case`` whose ``check`` inspects one operation's exit code and output
file and returns the list of problems (empty when the output is right).
Checks read result-carrying fields by name and ignore any other field,
``schema_version`` included.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# fit_wide: a 2000x1000 design with 40 planted signals. Signal gains are
# at least 0.25 while the largest noise-column gain is about 0.01 once
# the signals are in, so t = 0.05 selects exactly the planted columns.
FIT_N, FIT_P, FIT_SIGNALS, FIT_T = 2000, 1000, 40, 0.05
FIT_LOSS_RTOL = 1e-8

# verify_exact: exact sparse eigenvalues dominate. The answers come from
# verify_reference.json (brute-force oracle), one entry per config seed;
# --seed picks the entry modulo their number.
VERIFY_CONFIG = {"n": 200, "p": 30, "s0": 3, "design": "independent", "rho": 0.0,
                 "theta_pattern": "signed_alternating", "c": 1.0, "rate": 1.0,
                 "noise_sd": 0.5}
VERIFY_CONFIG_SEEDS = [7001 + 100 * k for k in range(10)]
VERIFY_REPLICATIONS = 1
VERIFY_SAFETY = 1.1
VERIFY_C1_RTOL = 1e-6

# rates_sweep: many small fits on the sampled eigenvalue path, fanned out
# over two threads.
RATES_CONFIG = {"n": 200, "p": 200, "s0": 5, "design": "toeplitz", "rho": 0.5,
                "theta_pattern": "decaying", "c": 2.0, "rate": 0.5, "noise_sd": 1.0}
RATES_GRID = (200, 400, 800, 1600)
RATES_REPLICATIONS = 20
RATES_THREADS = 2
RATES_FIELDS = ("n", "median_pred_error_norm", "median_s_hat")
RATES_RTOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One workload's prepared inputs for a run."""

    argv: list[str]                      # CLI arguments after the program name
    out: str                             # file the CLI writes its result to
    work: float                          # work units one operation completes
    check: Callable[[int], list[str]]    # exit code -> problems with the output
    inputs: dict                         # recorded in the result detail


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    # wrapped functions that must record calls on this workload
    expected: tuple[str, ...]
    # per-layer metric prefix -> end-to-end metrics it should move here
    moves: dict[str, tuple[str, ...]]
    prepare: Callable[[str, int, Callable[[list[str]], int]], Case]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# fit_wide


def prepare_fit_wide(work_dir: str, seed: int, run_cli) -> Case:
    from fwdreg.core_linalg import Dataset
    from fwdreg.oracle import loss_on_support

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((FIT_N, FIT_P))
    support = sorted(int(j) for j in rng.choice(FIT_P, FIT_SIGNALS, replace=False))
    beta = rng.uniform(0.5, 1.0, FIT_SIGNALS) * rng.choice([-1.0, 1.0], FIT_SIGNALS)
    y = x[:, support] @ beta + rng.standard_normal(FIT_N)
    # values k / 1e6 print exactly with %.6f and parse back to the same
    # double, so the checker sees the numbers the program reads
    data = np.round(np.column_stack([y, x]) * 1e6) / 1e6
    path = os.path.join(work_dir, "fit_wide.csv")
    header = ",".join(["y"] + [f"x{j}" for j in range(FIT_P)])
    np.savetxt(path, data, fmt="%.6f", delimiter=",", header=header, comments="")
    with open(os.path.join(work_dir, "fit_wide_support.json"), "w", encoding="utf-8") as fh:
        json.dump({"support": support, "beta": beta.tolist()}, fh)

    centred = data - data.mean(axis=0)
    xs = centred[:, 1:] / np.sqrt((centred[:, 1:] ** 2).mean(axis=0))
    ref_loss = loss_on_support(Dataset(x=xs, y=centred[:, 0]), support)
    out = os.path.join(work_dir, "fit.json")

    def check(code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        rep = _read_json(out)
        problems = []
        if list(rep["support"]) != support:
            problems.append(f"support {rep['support']} != planted {support}")
        if not _close(rep["loss"], ref_loss, FIT_LOSS_RTOL):
            problems.append(f"loss {rep['loss']} != oracle {ref_loss}")
        if len(rep["trace"]) != FIT_SIGNALS:
            problems.append(f"{len(rep['trace'])} selection steps, want {FIT_SIGNALS}")
        if not all(step["gain"] > FIT_T for step in rep["trace"]):
            problems.append("a trace gain is not above t")
        return problems

    return Case(
        argv=["fit", "-i", path, "-t", repr(FIT_T), "-o", out],
        out=out,
        work=float(FIT_N * FIT_P),
        check=check,
        inputs={"n": FIT_N, "p": FIT_P, "signals": FIT_SIGNALS, "t": FIT_T,
                "csv_bytes": os.path.getsize(path), "reference_loss": ref_loss},
    )


# ---------------------------------------------------------------------------
# verify_exact


def prepare_verify_exact(work_dir: str, seed: int, run_cli) -> Case:
    ref = _read_json(os.path.join(HERE, "verify_reference.json"))
    entry = ref["entries"][seed % len(ref["entries"])]
    cfg_path = os.path.join(work_dir, "verify_config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(dict(ref["config"], seed=entry["config_seed"]), fh)
    expected = entry["records"]
    out = os.path.join(work_dir, "verify.json")

    def check(code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        rep = _read_json(out)
        problems = []
        if rep["all_bounds_hold"] is not True:
            problems.append("all_bounds_hold is not true")
        if len(rep["records"]) != len(expected):
            return problems + [f"{len(rep['records'])} records, want {len(expected)}"]
        for got, want in zip(rep["records"], expected):
            for key in ("seed", "s_hat", "n_true_selected", "n_false_selected"):
                if got[key] != want[key]:
                    problems.append(f"seed {want['seed']}: {key} {got[key]} != {want[key]}")
            if not _close(got["c1"], want["c1"], VERIFY_C1_RTOL):
                problems.append(f"seed {want['seed']}: c1 {got['c1']} != {want['c1']}")
        return problems

    return Case(
        argv=["verify", "--config", cfg_path, "--replications", str(len(expected)),
              "--safety", repr(ref["safety"]), "--threads", "1", "-o", out],
        out=out,
        work=float(len(expected)),
        check=check,
        inputs={"config_seed": entry["config_seed"], "replications": len(expected)},
    )


# ---------------------------------------------------------------------------
# rates_sweep


def _read_rates(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(row[k]) for k in RATES_FIELDS} for row in csv.DictReader(fh)]


def prepare_rates_sweep(work_dir: str, seed: int, run_cli) -> Case:
    cfg_path = os.path.join(work_dir, "rates_config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(dict(RATES_CONFIG, seed=seed), fh)

    def argv(threads: int, out: str) -> list[str]:
        return ["rates", "--config", cfg_path,
                "--n-grid", ",".join(str(n) for n in RATES_GRID),
                "--replications", str(RATES_REPLICATIONS),
                "--threads", str(threads), "-o", out]

    ref_path = os.path.join(work_dir, "rates_reference.csv")
    code = run_cli(argv(1, ref_path))
    if code != 0:
        raise RuntimeError(f"single-thread reference rates run exited {code}")
    reference = _read_rates(ref_path)
    out = os.path.join(work_dir, "rates.csv")

    def check(code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        rows = _read_rates(out)
        if len(rows) != len(reference):
            return [f"{len(rows)} rows, want {len(reference)}"]
        return [
            f"row n={want['n']}: {key} {got[key]} != {want[key]}"
            for got, want in zip(rows, reference)
            for key in RATES_FIELDS
            if not _close(got[key], want[key], RATES_RTOL)
        ]

    return Case(
        argv=argv(RATES_THREADS, out),
        out=out,
        work=float(len(RATES_GRID) * RATES_REPLICATIONS),
        check=check,
        inputs={"config_seed": seed, "n_grid": list(RATES_GRID),
                "replications": RATES_REPLICATIONS, "threads": RATES_THREADS},
    )


# ---------------------------------------------------------------------------

_FIT_PATH = (
    "core_linalg.column_moments", "core_linalg.is_standardized",
    "core_linalg.least_squares_on_support", "core_linalg.ortho_extend",
    "forward_select.forward_regression", "forward_select.score_all",
)
_SIM_PATH = _FIT_PATH + (
    "core_linalg.gram", "forward_select.parameter_errors",
    "simulate.simulate_dataset", "simulate.oracle_threshold",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit_wide",
            why="one wide fit whose time splits between CSV parsing and "
                "candidate scoring; an eigenvalue change should not move it",
            work_unit="design cells (n*p)",
            expected=_FIT_PATH + ("cli.read_csv", "cli.write_json"),
            moves={
                "cli.read_csv": ("wall_s", "peak_rss_mb"),
                "forward_select.score_all": ("wall_s",),
                "core_linalg.ortho_extend": ("wall_s",),
            },
            prepare=prepare_fit_wide,
        ),
        Workload(
            name="verify_exact",
            why="exact sparse-eigenvalue enumeration is nearly all of the time "
                "and the fit is tiny; a scoring or parse change should not move it",
            work_unit="replications",
            expected=_SIM_PATH + (
                "cli.write_json", "theory_bounds.sparse_eig_exact",
                "theory_bounds.verify_theorem1", "theory_bounds.verify_theorem3",
            ),
            moves={
                "theory_bounds.sparse_eig_exact": ("wall_s",),
                "theory_bounds.eig_source.hit_frac": ("wall_s",),
            },
            prepare=prepare_verify_exact,
        ),
        Workload(
            name="rates_sweep",
            why="many small fits on the sampled eigenvalue path over a thread "
                "pool; catches per-call cost added to speed up the wide fit",
            work_unit="simulated fits (grid points * replications)",
            expected=_SIM_PATH + (
                "cli.write_csv", "theory_bounds.sparse_eig_sampled", "cli.pool",
            ),
            moves={
                "forward_select.score_all": ("work_per_s",),
                "core_linalg.ortho_extend": ("work_per_s",),
                "theory_bounds.sparse_eig_sampled": ("wall_s", "cpu_s"),
                "simulate.simulate_dataset": ("wall_s", "cpu_s"),
                "core_linalg.gram": ("wall_s", "cpu_s"),
                "cli.pool.busy_frac": ("wall_s", "cpu_s"),
            },
            prepare=prepare_rates_sweep,
        ),
    )
}
