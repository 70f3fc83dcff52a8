"""The verify_exact benchmark checks `verify` against answers committed in
perfbench/verify_reference.json, whose generator sets each threshold from
phi at a size it computes itself. These tests fail when that size and the
default_phi_size of `verify` part, instead of the benchmark failing later on a
threshold mismatch it cannot explain."""

import json
import pathlib

import pytest

from fwdreg.experiment import default_phi_size
from fwdreg.simulate import SimConfig, oracle_threshold, simulate_dataset

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "verify_reference.json")
    .read_text(encoding="utf-8"))
RECORDS = [record for entry in REFERENCE["entries"] for record in entry["records"]]


@pytest.mark.parametrize("record", RECORDS, ids=[str(r["seed"]) for r in RECORDS])
def test_reference_threshold_uses_default_phi_size(record):
    cfg = SimConfig(**REFERENCE["config"], seed=record["seed"])
    size = str(default_phi_size(cfg))
    assert size in record["phi"], f"no phi at the default size {size}"
    t = oracle_threshold(simulate_dataset(cfg), record["phi"][size],
                         safety=REFERENCE["safety"])
    assert t == pytest.approx(record["t"], rel=1e-12, abs=0)
