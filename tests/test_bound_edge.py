"""The prediction bound pred_error_norm <= c1 of Theorem 1 at its edge.

With s0 = 1 and no selection (s_hat = 0), phi_min(1) = 1 on a
standardized Gram, and the one true column j was not selected, so its
gain (theta_j + E_n[x_j eps])^2 was at most t. Then
pred = |theta_j| <= sqrt(t) + nu, with nu = ||E_n[x eps]||_inf, while
c1 = sqrt(t) + 2 nu. The oracle threshold sets sqrt(t) = 2 s nu / phi,
with s the safety and phi = phi_min(phi_size), so

    pred / c1 <= (2s/phi + 1) / (2s/phi + 2),

which tends to 1 as phi falls. The equicorrelated design at rho = 0.99
has phi_min(2) near 0.005, so the ratio of these fits comes within 0.3% of 1.
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fwdreg import experiment, theory_bounds
from fwdreg.cli import EXIT_OK, main
from fwdreg.core_linalg import en_dot, gram
from fwdreg.simulate import SimConfig, simulate_dataset

EDGE_CONFIG = {"n": 51, "p": 9, "s0": 1, "design": "equicorrelated", "rho": 0.99,
               "theta_pattern": "signed_alternating", "c": 78.95105291454263,
               "seed": 2897428}

# seed -> (pred_error_norm / c1, the closed-form bound) of the fits with s_hat = 0
ZERO_SELECTIONS = {
    2897428: (0.997116, 0.997804),
    2897433: (0.378319, 0.997329),
    2897439: (0.976632, 0.996407),
}


def test_zero_selection_fits_meet_the_closed_form(tmp_path):
    cfg_path = tmp_path / "edge.json"
    cfg_path.write_text(json.dumps(EDGE_CONFIG))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg_path), "--safety", "1.0",
                 "--replications", "20", "-o", str(out)]) == EXIT_OK
    records = {r["seed"]: r for r in json.loads(out.read_text())["records"]}
    assert sorted(s for s, r in records.items() if r["s_hat"] == 0) == sorted(ZERO_SELECTIONS)

    cfg = SimConfig(**EDGE_CONFIG)
    for seed, (ratio, closed_form) in ZERO_SELECTIONS.items():
        record = records[seed]
        phi = theory_bounds.sparse_eig_exact(gram(simulate_dataset(replace(cfg, seed=seed)).x),
                                             2).value
        bound = (2 / phi + 1) / (2 / phi + 2)
        assert record["pred_error_norm"] / record["c1"] == pytest.approx(ratio, abs=1e-6)
        assert bound == pytest.approx(closed_form, abs=1e-6)
        assert record["pred_error_norm"] / record["c1"] <= bound


@st.composite
def small_exact_configs(draw):
    """A small simulation (p <= 12) in every design and theta pattern,
    whose phi at every bound-check size the exact enumeration affords."""
    p = draw(st.integers(2, 12))
    design = draw(st.sampled_from(["independent", "equicorrelated", "toeplitz"]))
    rho = 0.0 if design == "independent" else draw(st.floats(0.0, 0.99))
    return SimConfig(
        n=draw(st.integers(p + 2, 80)),
        p=p,
        s0=draw(st.integers(1, min(p, 3))),
        design=design,
        rho=rho,
        theta_pattern=draw(st.sampled_from(["constant", "decaying", "signed_alternating"])),
        c=draw(st.floats(0.05, 100.0)),
        noise_sd=draw(st.floats(0.1, 2.0)),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=150)
@given(small_exact_configs())
def test_prediction_ratio_never_exceeds_one(cfg):
    ds = simulate_dataset(cfg)
    record, bounds = experiment.fit_record(
        ds, theory_bounds.exact_eig_source(gram(ds.x)), 1.0,
        experiment.default_phi_size(cfg))
    slack = theory_bounds.PRED_RTOL * math.sqrt(en_dot(ds.y, ds.y)) / record["c1"]
    assert record["pred_error_norm"] / record["c1"] <= 1.0 + slack
    assert bounds.pred_bound_holds
