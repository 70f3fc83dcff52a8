"""Memory of the CSV data path, of simulation and of the selection loop,
measured with tracemalloc (numpy reports its array buffers to it).

The parsed n x (p+1) table is the unit for reading: streaming the rows
into the parser and standardizing the design in place keep the peak near
two tables (the table and the design split off it). A simulated draw
correlates its normals in place, so it holds at most the draw and the
standardized design. The selection loop allocates vectors of length n or
p and n x k bases, never a design-sized temporary."""

import tracemalloc

import numpy as np
import pytest

from fwdreg.cli import read_dataset
from fwdreg.forward_select import forward_regression
from fwdreg.simulate import SimConfig, simulate_dataset

N, P = 400, 250


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((N, P))
    y = x[:, :3] @ np.array([2.0, -1.5, 1.0]) + 0.5 * rng.standard_normal(N)
    path = tmp_path_factory.mktemp("memory") / "wide.csv"
    header = ",".join([f"x{j}" for j in range(P)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header, comments="")
    return str(path)


def _peak_bytes(fn, *args):
    """(result, bytes allocated at the peak of fn beyond what was live before)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_read_dataset_peak_is_near_two_tables(wide_csv):
    (_names, ds, *_moments), peak = _peak_bytes(read_dataset, wide_csv)
    assert ds.x.shape == (N, P)
    table = 8 * N * (P + 1)
    assert peak <= 2.5 * table, f"peak {peak / table:.2f} tables"


@pytest.mark.parametrize("design", ["toeplitz", "equicorrelated"])
def test_simulate_dataset_peak_is_near_two_designs(design):
    cfg = SimConfig(n=1600, p=200, s0=5, design=design, rho=0.5, seed=3)
    simulate_dataset(SimConfig(n=2, p=1, s0=1))  # imports numpy.random
    ds, peak = _peak_bytes(simulate_dataset, cfg)
    design_bytes = ds.x.nbytes
    assert peak <= 2.2 * design_bytes, f"peak {peak / design_bytes:.2f} designs"


def test_forward_regression_makes_no_design_sized_temporary(wide_csv):
    _names, ds, *_moments = read_dataset(wide_csv)
    fr, peak = _peak_bytes(forward_regression, ds, 0.1)
    assert fr.support == (0, 1, 2)
    design = ds.x.nbytes
    assert peak <= 0.25 * design, f"peak {peak / design:.2f} designs"
