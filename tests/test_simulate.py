import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg

from fwdreg import oracle, simulate
from fwdreg.core_linalg import STANDARDIZED_TOL, Dataset, column_moments, gram
from fwdreg.errors import MissingGroundTruth
from fwdreg.oracle import leading_rows_plain
from fwdreg.simulate import (
    THRESHOLD_FLOOR,
    SimConfig,
    nested_samples,
    oracle_threshold,
    simulate_dataset,
)
from helpers import child_env


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=1, p=5, s0=2)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, s0=6)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, s0=2, design="spiral")
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, s0=2, design="toeplitz", rho=1.0)
        with pytest.raises(ValueError, match=r"^p must be >= 1, got 0$"):
            SimConfig(n=10, p=0, s0=0)
        # 1 + (p - 1) rho must be positive; a single column has no partner
        with pytest.raises(ValueError, match=r"needs rho > -1/\(p - 1\) = -0\.25 at p = 5"):
            SimConfig(n=10, p=5, s0=2, design="equicorrelated", rho=-0.25)
        for p, rho in ((5, np.nextafter(-0.25, 0.0)), (1, -0.9)):
            cfg = SimConfig(n=10, p=p, s0=1, design="equicorrelated", rho=rho)
            assert np.isfinite(simulate_dataset(cfg).x).all()
        # counts and the seed must be integers, the rest finite reals
        for field, value in [
            ("n", 50.5), ("p", 10.0), ("s0", 2.0), ("seed", 1.5), ("seed", "a"),
            ("n", True), ("seed", None),
            ("c", math.nan), ("c", math.inf), ("rate", math.nan),
            ("noise_sd", math.inf), ("rho", "0.5"), ("c", False),
        ]:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SimConfig(**{"n": 50, "p": 10, "s0": 2,
                             "theta_pattern": "decaying", field: value})

    def test_json_round_trip(self):
        cfg = SimConfig(n=50, p=10, s0=3, design="toeplitz", rho=0.4, seed=9)
        assert SimConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestSimulateDataset:
    def test_noiseless(self):
        ds = simulate_dataset(SimConfig(n=40, p=8, s0=2, noise_sd=0.0, seed=1))
        assert np.all(ds.epsilon == 0)
        np.testing.assert_allclose(ds.y, ds.x @ ds.theta0, atol=1e-14)

    def test_reconstruction_exact(self):
        ds = simulate_dataset(SimConfig(n=60, p=12, s0=3, noise_sd=0.7, seed=2))
        gap = ds.y - ds.x @ ds.theta0 - ds.epsilon
        assert np.max(np.abs(gap)) < 1e-12 * np.max(np.abs(ds.y))

    def test_deterministic_under_seed(self):
        cfg = SimConfig(n=30, p=6, s0=2, design="equicorrelated", rho=0.3, seed=5)
        a, b = simulate_dataset(cfg), simulate_dataset(cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.theta0, b.theta0)

    def test_standardization_postcondition(self):
        for design, rho in (("independent", 0.0), ("equicorrelated", 0.5),
                            ("toeplitz", 0.6)):
            ds = simulate_dataset(
                SimConfig(n=50, p=10, s0=2, design=design, rho=rho, seed=3)
            )
            assert np.max(np.abs(ds.x.mean(axis=0))) < 1e-12
            assert np.max(np.abs((ds.x**2).mean(axis=0) - 1.0)) < 1e-12

    def test_support_size_and_pattern(self):
        cfg = SimConfig(n=40, p=20, s0=4, theta_pattern="signed_alternating",
                        c=2.0, seed=11)
        ds = simulate_dataset(cfg)
        assert np.count_nonzero(ds.theta0) == 4

    def test_independent_gram_concentration(self):
        n = 10_000
        ds = simulate_dataset(
            SimConfig(n=n, p=20, s0=1, design="equicorrelated", rho=0.0, seed=4)
        )
        g = gram(ds.x)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 6.0 / math.sqrt(n)

    def test_toeplitz_gram_converges(self):
        rho, p = 0.5, 10
        pop = scipy.linalg.toeplitz(rho ** np.arange(p))

        def median_dist(n):
            ds_list = [
                simulate_dataset(
                    SimConfig(n=n, p=p, s0=1, design="toeplitz", rho=rho, seed=s)
                )
                for s in range(11)
            ]
            return float(np.median(
                [np.linalg.norm(gram(d.x) - pop) for d in ds_list]
            ))

        ratio = median_dist(1000) / median_dist(4000)
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


@pytest.mark.parametrize(
    "p, rho", [(1, 0.3), (2, -0.7), (5, 0.9), (30, 0.5), (200, 0.3), (17, -0.45)]
)
def test_toeplitz_build_bit_identical_to_scipy(p, rho):
    """The dense twin's numpy Toeplitz build equals scipy.linalg.toeplitz
    bit for bit."""
    cfg = SimConfig(n=40, p=p, s0=1, design="toeplitz", rho=rho, seed=p)
    reference = np.linalg.cholesky(scipy.linalg.toeplitz(rho ** np.arange(p)))
    assert np.array_equal(oracle._design_cholesky(cfg), reference)


def _edge_rho(p):
    """Just inside the equicorrelated limit rho > -1/(p - 1); one column
    has no limit."""
    return -1 / (p - 1) + 1e-6 if p > 1 else -0.99


TWIN_CASES = [
    *(("toeplitz", p, rho) for p in (1, 2, 5, 200) for rho in (-0.7, 0.3, 0.99)),
    *(("equicorrelated", p, rho) for p in (1, 2, 5, 200)
      for rho in (_edge_rho(p), 0.3, 0.99)),
]


@pytest.mark.parametrize("design, p, rho", TWIN_CASES)
def test_correlated_design_agrees_with_dense_twin(design, p, rho):
    """The column recursions are the Cholesky factor itself: they meet the
    dense product raw @ chol.T of the oracle to rounding, on the same
    normals, so the noise and the support are drawn unchanged."""
    cfg = SimConfig(n=300, p=p, s0=min(p, 3), design=design, rho=rho,
                    theta_pattern="decaying", seed=p)
    got, want = simulate_dataset(cfg), leading_rows_plain(cfg, cfg.n)
    for name in ("x", "y", "theta0"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    assert np.array_equal(got.epsilon, want.epsilon)
    assert np.array_equal(np.flatnonzero(got.theta0), np.flatnonzero(want.theta0))


@pytest.mark.parametrize("design", simulate.DESIGNS)
def test_uncorrelated_design_is_the_standardized_draw(design):
    """With rho = 0 the draw is only standardized, bit for bit as
    (raw - mean) / scale."""
    cfg = SimConfig(n=200, p=30, s0=4, design=design, seed=9)
    raw = np.random.default_rng(cfg.seed).standard_normal((cfg.n, cfg.p))
    mean, scale = column_moments(raw)
    assert np.array_equal(simulate_dataset(cfg).x, (raw - mean) / scale)


_HASH_SCRIPT = """
import hashlib
from fwdreg.simulate import SimConfig, simulate_dataset
digest = hashlib.sha256()
for design in ("toeplitz", "equicorrelated"):
    ds = simulate_dataset(SimConfig(n=1600, p=200, s0=5, design=design,
                                    rho=0.5, seed=3))
    for name in ("x", "y", "theta0", "epsilon"):
        digest.update(getattr(ds, name).tobytes())
print(digest.hexdigest())
"""


def test_output_does_not_depend_on_blas_thread_count():
    """Seeded correlated designs are bit-identical under one and two BLAS
    threads. At 1600 x 200 OpenBLAS splits a dense product across its
    threads, and the split changes the rounding; at 400 x 60 it does not,
    so a smaller size cannot tell."""
    digests = {
        threads: subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT], capture_output=True,
            text=True, check=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
        ).stdout
        for threads in ("1", "2")
    }
    assert digests["1"] == digests["2"], digests


class TestLeadingRows:
    """simulate.nested_samples: the draw's leading rows, standardized in
    place on each grid point from the largest down."""

    CONFIGS = [
        SimConfig(n=400, p=30, s0=4, theta_pattern="decaying", seed=11),
        SimConfig(n=400, p=30, s0=4, design="toeplitz", rho=0.5,
                  theta_pattern="signed_alternating", c=2.0, seed=12),
        SimConfig(n=300, p=50, s0=3, design="equicorrelated", rho=0.3,
                  noise_sd=0.0, seed=13),
    ]
    GRID = (3, 60, 200, 299)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=[c.design for c in CONFIGS])
    @pytest.mark.parametrize("n", GRID)
    def test_agrees_with_plain_twin(self, cfg, n):
        # n is reached through every larger grid point, each standardized
        # again on the rows of the one before
        sizes = [m for m in self.GRID if m >= n] + [cfg.n]
        *_larger, got = nested_samples(cfg, sizes)
        assert got.n == n
        want = leading_rows_plain(cfg, n)
        for name in ("x", "y", "theta0", "epsilon"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=[c.design for c in CONFIGS])
    def test_postconditions(self, cfg):
        full = simulate_dataset(cfg)
        sizes = [2, 37, 150, cfg.n - 1]
        walked = []
        for head in nested_samples(cfg, sizes):
            n = head.n
            walked.append(n)
            assert head.x.shape == (n, cfg.p)
            assert head.x.flags.c_contiguous
            # centred, with unit (1/n) second moment, to forward_regression's tolerance
            assert np.abs(head.x.mean(axis=0)).max() <= STANDARDIZED_TOL
            assert np.abs((head.x * head.x).mean(axis=0) - 1.0).max() <= STANDARDIZED_TOL
            assert np.array_equal(head.y, head.x @ head.theta0 + head.epsilon)
            assert np.array_equal(head.epsilon, full.epsilon[:n])
            assert np.array_equal(np.flatnonzero(head.theta0),
                                  np.flatnonzero(full.theta0))
        assert walked == sizes[::-1]

    def test_all_rows_is_the_dataset(self):
        cfg = self.CONFIGS[0]
        first = next(nested_samples(cfg, [100, cfg.n]))
        full = simulate_dataset(cfg)
        for name in ("x", "y", "theta0", "epsilon"):
            assert np.array_equal(getattr(first, name), getattr(full, name)), name

    def test_leaves_the_dataset_untouched(self):
        """Only the leading rows are rewritten: the rows beyond a grid
        point keep the values of the draw."""
        cfg = self.CONFIGS[1]
        walk = nested_samples(cfg, [100, cfg.n])
        full = next(walk)
        tail = full.x[100:].copy()
        head = next(walk)
        assert np.shares_memory(head.x, full.x)
        assert np.array_equal(full.x[100:], tail)

    @pytest.mark.parametrize("n", [1, 0, -5, 401])
    def test_rejects_row_count_out_of_range(self, n):
        cfg = self.CONFIGS[0]
        sizes = [n] if n > cfg.n else [n, cfg.n]
        with pytest.raises(ValueError, match=f"need 2 <= n <= 400 leading rows, got {n}"):
            next(nested_samples(cfg, sizes))

    @pytest.mark.parametrize("sizes", [[], [200, 100], [100, 100]])
    def test_rejects_sizes_out_of_order(self, sizes):
        with pytest.raises(ValueError, match="sizes must be nonempty and increasing"):
            next(nested_samples(self.CONFIGS[0], sizes))


class TestOracleThreshold:
    def test_noiseless_floors(self):
        ds = simulate_dataset(SimConfig(n=30, p=5, s0=1, noise_sd=0.0, seed=6))
        assert oracle_threshold(ds, phi=1.0) == THRESHOLD_FLOOR == 1e-12

    def test_formula_plug_in(self):
        # hand instance with E_n[x eps] = 0.1 exactly
        x = np.array([[1.0], [-1.0]])
        eps = np.array([0.1, -0.1])
        ds = Dataset(x=x, y=eps.copy(), theta0=np.zeros(1), epsilon=eps)
        assert oracle_threshold(ds, phi=1.0, safety=1.0) == pytest.approx(0.04, abs=1e-15)

    def test_requires_ground_truth(self):
        ds = Dataset(x=np.array([[1.0], [-1.0]]), y=np.zeros(2))
        with pytest.raises(MissingGroundTruth):
            oracle_threshold(ds, phi=1.0)

    def test_log_p_over_n_scale(self):
        """Median chosen threshold tracks 2 log(2p)/n within a factor 4."""
        n, p, phi, safety = 400, 200, 1.0, 1.0
        ts = []
        for seed in range(100):
            ds = simulate_dataset(
                SimConfig(n=n, p=p, s0=1, noise_sd=1.0, seed=seed)
            )
            ts.append(oracle_threshold(ds, phi=phi, safety=safety))
        ref = safety**2 * 2.0 * math.log(2 * p) / n / phi**2
        ratio = float(np.median(ts)) / ref
        assert 0.25 <= ratio <= 4.0
