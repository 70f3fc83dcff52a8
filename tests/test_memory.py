"""Memory of the CSV data path, of simulation, of the sparse eigenvalues
and of the selection loop, measured with tracemalloc (numpy
reports its array buffers to it).

The parsed n x (p+1) table is the unit for reading: streaming the rows
into the parser and standardizing the design in place keep the peak near
two tables (the table and the design split off it); a parallel parse
holds the design and two chunks of the table at most. Column moments hold
one block of rows or columns at a time, and a simulated draw is
correlated and standardized in place, so it holds one design. A `rates`
replication fits its grid points largest first, each on the draw's
leading rows standardized again in place, so it holds one design and
copies no rows. The sampled sparse eigenvalue holds about one p x p key
array beyond the Gram matrix; the exact one holds a prefix batch and a
tail piece of at most theory_bounds._CHUNK float64 entries each. The
selection loop allocates vectors of length n or p and n x k bases,
never a design-sized temporary. One job thread is the calling thread,
so it starts no worker thread (nor the heap a new thread's allocations
get)."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from fwdreg import parallel_csv
from fwdreg.cli import _fan_out, read_dataset, run_rates
from fwdreg.core_linalg import column_moments, gram
from fwdreg.forward_select import forward_regression
from fwdreg.simulate import SimConfig, simulate_dataset
from fwdreg.theory_bounds import sparse_eig_exact, sparse_eig_sampled

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


def _assert_read_peak_is_near_two_tables(path):
    (_names, ds, *_moments), peak = _peak_bytes(read_dataset, path)
    assert ds.x.shape == (N, P)
    table = 8 * N * (P + 1)
    assert peak <= 2.5 * table, f"peak {peak / table:.2f} tables"


def test_read_dataset_peak_is_near_two_tables(wide_csv, monkeypatch):
    monkeypatch.setattr(parallel_csv, "PARSE_CHUNK_BYTES", 1 << 62)  # the serial parse
    _assert_read_peak_is_near_two_tables(wide_csv)


def test_parallel_read_dataset_peak_is_near_two_tables(wide_csv, monkeypatch):
    """The parallel parse allocates the design and its own chunk; the
    child's chunk (one here, over two CPUs) is copied in from a mapped
    memory file, which tracemalloc does not see."""
    monkeypatch.setattr(parallel_csv, "PARSE_CHUNK_BYTES", 1 << 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    _assert_read_peak_is_near_two_tables(wide_csv)
    assert len(forks) == 1


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_moments_holds_a_block_not_a_design(order):
    raw = np.asarray(np.random.default_rng(5).standard_normal((1600, 200)), order=order)
    _moments, peak = _peak_bytes(column_moments, raw)
    assert peak <= 0.25 * raw.nbytes, f"peak {peak / raw.nbytes:.2f} designs"


@pytest.mark.parametrize("design", ["toeplitz", "equicorrelated"])
def test_simulate_dataset_peak_is_near_one_design(design):
    cfg = SimConfig(n=1600, p=200, s0=5, design=design, rho=0.5, seed=3)
    simulate_dataset(SimConfig(n=2, p=1, s0=1))  # imports numpy.random
    ds, peak = _peak_bytes(simulate_dataset, cfg)
    design_bytes = ds.x.nbytes
    assert peak <= 1.3 * design_bytes, f"peak {peak / design_bytes:.2f} designs"


@pytest.mark.parametrize("p", [100, 200])
def test_rates_replication_holds_its_draw_and_one_grid_point(p):
    """The rates_sweep benchmark's config (p = 200) and a narrower one. A
    replication holds its one design: this fails if any grid point's rows
    are copied (1.89 and 1.95 n_max designs when each point was a copy),
    or if the sampled eigenvalue's p x p temporaries grow back at p = 200."""
    cfg = SimConfig(n=200, p=p, s0=5, design="toeplitz", rho=0.5,
                    theta_pattern="decaying", c=2.0, rate=0.5, seed=3)
    run_rates(cfg, [20, 40, 60, 80], 1)  # first-call imports and caches
    grid = [200, 400, 800, 1600]
    _summary, peak = _peak_bytes(run_rates, cfg, grid, 1, 1.1, 1)
    design = 8 * grid[-1] * cfg.p
    assert peak <= 1.4 * design, f"peak {peak / design:.2f} n_max designs"


def test_sampled_sparse_eig_holds_one_key_array():
    """The partner groups' |G| keys are the one p x p array the sampled
    eigenvalue holds: no |G| temporary, partitioned copy of the keys or
    copy of G for the screen (2.48 p x p when it made them)."""
    cfg = SimConfig(n=800, p=200, s0=5, design="toeplitz", rho=0.5,
                    theta_pattern="decaying", c=2.0, rate=0.5, seed=3)
    g = gram(simulate_dataset(cfg).x)
    sparse_eig_sampled(g, 10)  # first-call imports and caches
    _report, peak = _peak_bytes(sparse_eig_sampled, g, 10)
    assert peak <= 1.5 * g.nbytes, f"peak {peak / g.nbytes:.2f} p x p"


def test_exact_sparse_eig_works_in_cache_sized_pieces():
    """phi(6) of a verify-sized Gram (p = 30, the size behind the
    prediction and count checks): a prefix batch and a tail piece of at
    most 60,000 entries (480 KB) each, and their LDL' temporaries, peak
    near 1.09 MB; counting the budget in (tail, prefix) pairs made
    9 x 20,000-entry (1.44 MB) pieces and a 2.71 MB peak."""
    cfg = SimConfig(n=200, p=30, s0=3, design="independent", rho=0.0,
                    theta_pattern="signed_alternating", c=1.0, rate=1.0,
                    noise_sd=0.5, seed=7001)
    g = gram(simulate_dataset(cfg).x)
    sparse_eig_exact(g, 6)  # first-call imports and caches
    _report, peak = _peak_bytes(sparse_eig_exact, g, 6)
    assert peak < 1_300_000, f"peak {peak / 1e6:.2f} MB"


def test_one_thread_fans_out_on_the_calling_thread():
    caller = threading.get_ident()
    assert _fan_out(lambda job: (job, threading.get_ident()), [0, 1, 2], 1) == [
        (0, caller), (1, caller), (2, caller)]

    raised = KeyError("job 1")

    def worker(job):
        if job == 1:
            raise raised
        return job

    with pytest.raises(KeyError) as exc:
        _fan_out(worker, [0, 1, 2], 1)
    assert exc.value is raised


def test_forward_regression_makes_no_design_sized_temporary(wide_csv):
    _names, ds, *_moments = read_dataset(wide_csv)
    fr, peak = _peak_bytes(forward_regression, ds, 0.1)
    assert fr.support == (0, 1, 2)
    design = ds.x.nbytes
    assert peak <= 0.25 * design, f"peak {peak / design:.2f} designs"
