"""Regenerate verify_reference.json, the committed answers for verify_exact.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_verify_reference.py

For each config seed of the verify_exact workload it simulates every
replication, takes the minimum sparse eigenvalues from the brute-force
oracle (one scipy eigensolver call per subset, about 30 s per Gram
matrix at p=30, s=6), chooses the oracle threshold from them, fits, and
records the selection counts and the prediction-bound constant c1.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from fwdreg.forward_select import forward_regression
from fwdreg.oracle import sparse_eig_bruteforce
from fwdreg.simulate import SimConfig, simulate_dataset

from workloads import VERIFY_CONFIG, VERIFY_CONFIG_SEEDS, VERIFY_REPLICATIONS, VERIFY_SAFETY

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_reference.json")


def reference_record(cfg: SimConfig) -> dict:
    ds = simulate_dataset(cfg)
    g = ds.x.T @ ds.x / ds.n
    g = (g + g.T) / 2.0
    phi: dict[int, float] = {}

    def phi_at(size: int) -> float:
        if size not in phi:
            phi[size] = sparse_eig_bruteforce(g, size).value
        return phi[size]

    phi_size = min(cfg.p, max(2 * cfg.s0, 1))
    noise_sup = float(np.max(np.abs(ds.x.T @ ds.epsilon / ds.n)))
    t = (VERIFY_SAFETY * 2.0 * noise_sup / phi_at(phi_size)) ** 2
    fr = forward_regression(ds, t)
    truth = set(np.flatnonzero(ds.theta0).tolist())
    size = fr.s_hat + cfg.s0
    c1 = math.sqrt(size) / phi_at(size) * (2.0 * noise_sup + math.sqrt(t))
    return {
        "seed": cfg.seed,
        "s_hat": fr.s_hat,
        "n_true_selected": len(set(fr.support) & truth),
        "n_false_selected": len(set(fr.support) - truth),
        "c1": c1,
        "t": t,
        "phi": {str(k): v for k, v in sorted(phi.items())},
    }


def main() -> None:
    entries = []
    for config_seed in VERIFY_CONFIG_SEEDS:
        cfg = SimConfig(**VERIFY_CONFIG, seed=config_seed)
        records = [
            reference_record(replace(cfg, seed=config_seed + rep))
            for rep in range(VERIFY_REPLICATIONS)
        ]
        entries.append({"config_seed": config_seed, "records": records})
        print(f"config seed {config_seed}: {records}", file=sys.stderr, flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"config": VERIFY_CONFIG, "safety": VERIFY_SAFETY,
                   "replications": VERIFY_REPLICATIONS, "entries": entries},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
