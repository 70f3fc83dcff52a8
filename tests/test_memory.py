"""Memory of the CSV data path and of the selection loop, measured with
tracemalloc (numpy reports its array buffers to it).

The parsed n x (p+1) table is the unit for reading: streaming the rows
into the parser and standardizing the design in place keep the peak near
two tables (the table and the design split off it). The selection loop
allocates vectors of length n or p and n x k bases, never a design-sized
temporary. The sampled sparse eigenvalue draws its random subsets a
fixed number of rows at a time, so its peak does not grow with the
number of draws."""

import tracemalloc

import numpy as np
import pytest

from fwdreg.cli import read_dataset
from fwdreg.core_linalg import Dataset, gram, standardize
from fwdreg.forward_select import forward_regression
from fwdreg.theory_bounds import sparse_eig_sampled

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


def test_forward_regression_makes_no_design_sized_temporary(wide_csv):
    _names, ds, *_moments = read_dataset(wide_csv)
    fr, peak = _peak_bytes(forward_regression, ds, 0.1)
    assert fr.support == (0, 1, 2)
    design = ds.x.nbytes
    assert peak <= 0.25 * design, f"peak {peak / design:.2f} designs"


def test_sampled_eig_peak_does_not_grow_with_draws():
    # one rng.random((draws, p)) call of keys peaked at 160 MB here for
    # 200,000 draws and 17.6 MB for 20,000
    x = np.random.default_rng(5).standard_normal((100, 50))
    standardize(x)
    g = gram(Dataset(x=x, y=np.zeros(100)))
    small, peak_small = _peak_bytes(sparse_eig_sampled, g, 5, 20_000, 1)
    large, peak_large = _peak_bytes(sparse_eig_sampled, g, 5, 200_000, 1)
    assert large.value <= small.value
    assert peak_large <= 1.5 * peak_small, f"{peak_large / 1e6:.1f} vs {peak_small / 1e6:.1f} MB"
