import json
import math
import subprocess
import sys
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwdreg import experiment, theory_bounds
from fwdreg.core_linalg import gram
from fwdreg.forward_select import forward_regression
from fwdreg.simulate import SimConfig, oracle_threshold, simulate_dataset
from helpers import child_env


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_fit_record_checks_the_bounds_only_on_an_exact_phi(exact):
    """With an exact source the record holds every BoundReport field and the
    report comes back; a sampled phi supports no check, so neither does.
    Either way t and the fit are the hand-run oracle threshold's."""
    cfg = SimConfig(n=80, p=12, s0=2, design="toeplitz", rho=0.3, noise_sd=0.5, seed=4)
    ds = simulate_dataset(cfg)
    g = gram(ds.x)
    if exact:
        eig, phi = theory_bounds.exact_eig_source(g), theory_bounds.sparse_eig_exact(g, 4)
    else:
        eig = partial(theory_bounds.sparse_eig_sampled, g)
        phi = theory_bounds.sparse_eig_sampled(g, 4)
    record, bounds = experiment.fit_record(ds, eig, 1.1, 4)

    t = oracle_threshold(ds, phi.value, safety=1.1)
    fr = forward_regression(ds, t)
    truth = set(np.flatnonzero(ds.theta0).tolist())
    fit_fields = {
        "t": t,
        "s_hat": fr.s_hat,
        "n_true_selected": len(set(fr.support) & truth),
        "n_false_selected": len(set(fr.support) - truth),
        "pred_error_norm": fr.pred_error_norm,
        "l1_error": fr.l1_error,
        "l2_error": fr.l2_error,
    }
    if exact:
        want = theory_bounds.verify_theorem1(fr, ds, t, theory_bounds.exact_eig_source(g))
        assert bounds == want
        assert record == {**fit_fields, **asdict(want)}
    else:
        assert bounds is None
        assert record == fit_fields


def _bits(value: float) -> bytes:
    """A float's bytes, with every NaN as one: bit-equal up to NaN payload."""
    return np.float64(math.nan if math.isnan(value) else value).tobytes()


# a few integers, so that ties are common; magnitudes near the largest
# float64, where b - a overflows; and the infinities and NaN
_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@settings(max_examples=500)
@given(st.lists(_VALUES, min_size=1, max_size=12))
def test_statistics_helpers_match_numpy(values):
    """_quantile, _median and _median_iqr set every verify aggregate and
    every rates median: bit-equal to np.quantile at 0.25, 0.5 and 0.75 and
    to np.median."""
    ordered = np.sort(np.asarray(values, dtype=float))
    with np.errstate(all="ignore"):  # inf - inf and the overflow of b - a
        quantiles = [float(np.quantile(values, q)) for q in (0.25, 0.5, 0.75)]
        assert [_bits(experiment._quantile(ordered, q)) for q in (0.25, 0.5, 0.75)] == [
            _bits(v) for v in quantiles]
        assert _bits(experiment._median(values)) == _bits(np.median(values))
        summary = experiment._median_iqr(values)
    assert _bits(summary["median"]) == _bits(quantiles[1])
    assert _bits(summary["iqr"]) == _bits(quantiles[2] - quantiles[0])


_LAYER_SCRIPT = """
import json, sys
import fwdreg.experiment
print(json.dumps(sorted(m for m in ("fwdreg.cli", "argparse", "csv") if m in sys.modules)))
"""


def test_experiment_does_not_load_the_command_line():
    """The experiment loop is a library layer: importing it loads neither
    the command-line module nor its argparse and csv. A fresh interpreter
    is used, since the test process has loaded all three."""
    proc = subprocess.run([sys.executable, "-c", _LAYER_SCRIPT],
                          capture_output=True, text=True, env=child_env(), check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
