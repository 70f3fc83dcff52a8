"""Acceptance gate: one test per exit criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time

import numpy as np
import pytest

from fwdreg.cli import main
from fwdreg.core_linalg import (
    gram,
    initial_state,
    least_squares_on_support,
    ortho_extend,
    standardize,
)
from fwdreg.experiment import run_rates, run_verify
from fwdreg.forward_select import forward_regression, score_all
from fwdreg.oracle import best_subset, naive_delta_loss, sparse_eig_bruteforce
from fwdreg.simulate import SimConfig
from fwdreg.theory_bounds import sparse_eig_exact
from helpers import random_standardized_dataset


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def verify_ensemble():
    """Canonical 200-replication bound-verification ensemble."""
    cfg = SimConfig(n=100, p=20, s0=2, noise_sd=0.5, seed=20260824)
    started = time.perf_counter()
    rep, all_pass = run_verify(cfg, replications=200, safety=1.1, threads=4)
    elapsed = time.perf_counter() - started
    return rep, all_pass, elapsed


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(20, 101))
        p = int(rng.integers(4, 21))
        ds = random_standardized_dataset(rng, n, p)
        size = int(rng.integers(0, min(8, p - 1, n // 3) + 1))
        support = [int(j) for j in rng.permutation(p)[:size]]
        state = initial_state(ds)
        for j in support:
            state = ortho_extend(state, j, ds)
        scores = score_all(state)
        for j in range(p):
            if j in support or not np.isfinite(scores[j]):
                continue
            ref = -naive_delta_loss(ds, support, j)
            gap = abs(scores[j] - ref) / max(abs(ref), 1e-12)
            worst = max(worst, gap)
        _, batch_loss = least_squares_on_support(ds, support)
        loss_gap = abs(state.residual_loss - batch_loss) / max(batch_loss, 1e-12)
        worst = max(worst, loss_gap)
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-9 and elapsed < 30.0,
           f"(max rel gap {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_prediction_bound(verify_ensemble):
    rep, _all_pass, elapsed = verify_ensemble
    n_ok = sum(r["pred_bound_holds"] for r in rep["records"])
    report(2, n_ok == 200 and elapsed < 300.0,
           f"({n_ok}/200 within C1, ensemble {elapsed:.1f} s)")


def test_criterion_3_selection_count_bound(verify_ensemble):
    rep, _all_pass, _elapsed = verify_ensemble
    n_ok = sum(
        all(c["holds"] for c in r["c2_of_m"]) for r in rep["records"]
    )
    floor = 1.0 + 72.0 * 1.783**2
    floor_ok = round(floor, 6) == 229.894408
    report(3, n_ok == 200 and floor_ok,
           f"({n_ok}/200 count bounds, C2 floor {floor:.6f})")


def test_criterion_4_theorem3_chain(verify_ensemble):
    rep, _all_pass, _elapsed = verify_ensemble
    n_ok = sum(
        r["theorem3_l2_ok"] and r["theorem3_l1_ok"] for r in rep["records"]
    )
    report(4, n_ok == 200, f"({n_ok}/200 chains hold)")


def test_criterion_5_rate_slope():
    cfg = SimConfig(n=200, p=50, s0=3, noise_sd=1.0, seed=7)
    started = time.perf_counter()
    summary = run_rates(cfg, [200, 400, 800, 1600], replications=100, threads=4)
    elapsed = time.perf_counter() - started
    slope = summary["slope"]
    ratio_max = max(r["median_s_hat"] / cfg.s0 for r in summary["rows"])
    ok = (slope is not None and -0.65 <= slope <= -0.35
          and ratio_max <= 10.0 and elapsed < 600.0)
    report(5, ok, f"(slope {slope:.3f}, max median s_hat/s0 {ratio_max:.2f}, "
                  f"{elapsed:.1f} s)")


def test_criterion_6_sparse_eigenvalues():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(4, 13))
        n = int(rng.integers(p + 5, 40))
        x = rng.standard_normal((n, p))
        standardize(x)
        g = gram(x)
        s = int(rng.integers(1, 5))
        fast = sparse_eig_exact(g, s)
        ref = sparse_eig_bruteforce(g, s)
        worst = max(worst, abs(fast.value - ref.value))
        values = [sparse_eig_exact(g, k).value for k in range(1, s + 1)]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))
    identity_ok = sparse_eig_exact(np.eye(8), 3).value == 1.0
    report(6, worst < 1e-10 and identity_ok,
           f"(max enum gap {worst:.2e}, identity exact)")


def test_criterion_7_greedy_vs_exhaustive():
    rng = np.random.default_rng(7)
    n_ok = 0
    for _ in range(100):
        p = int(rng.integers(5, 13))
        ds = random_standardized_dataset(rng, 50, p, s0=min(3, p))
        fr = forward_regression(ds, t=0.05)
        _, exhaustive = best_subset(ds, fr.s_hat)
        n_ok += exhaustive <= fr.loss + 1e-12
    report(7, n_ok == 100, f"({n_ok}/100 instances)")


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        dict(n=100, p=20, s0=2, noise_sd=0.5, seed=99)))
    blobs = []
    for threads in ("1", "4", "4"):
        out = tmp_path / f"report_{len(blobs)}.json"
        code = main(["verify", "--config", str(cfg_path),
                     "--replications", "20", "--threads", threads,
                     "-o", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(8, ok, "(byte-identical reports across thread counts)")
