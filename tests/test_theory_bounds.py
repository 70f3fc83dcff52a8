import math

import numpy as np
import pytest
import scipy.linalg

from fwdreg.core_linalg import Dataset, gram, standardize
from fwdreg.errors import (
    BudgetExceeded,
    MissingGroundTruth,
    NonpositiveEigenvalue,
)
from fwdreg.forward_select import forward_regression
from fwdreg.oracle import sparse_eig_bruteforce
from fwdreg.theory_bounds import (
    constant_c1,
    constant_c2,
    exact_eig_source,
    sparse_eig_exact,
    sparse_eig_sampled,
    threshold_condition,
    verify_theorem1,
    verify_theorem3,
)
from helpers import orthonormal_design, random_standardized_dataset


def random_gram(rng, n, p):
    x = standardize(rng.standard_normal((n, p)))
    return gram(Dataset(x=x, y=np.zeros(n)))


class TestSparseEigExact:
    def test_identity(self):
        rep = sparse_eig_exact(np.eye(6), 3)
        assert rep.value == 1.0
        assert rep.method == "exact"
        assert len(rep.witness) == 3

    def test_two_by_two_closed_form(self):
        g = np.array([[1.0, 0.5], [0.5, 1.0]])
        rep = sparse_eig_exact(g, 2)
        assert rep.value == pytest.approx(0.5, abs=1e-14)
        assert rep.witness == (0, 1)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(0)
        g = random_gram(rng, 20, 8)
        rep = sparse_eig_exact(g, 3)
        ref = sparse_eig_bruteforce(g, 3)
        assert rep.value == pytest.approx(ref.value, abs=1e-12)
        assert rep.witness == ref.witness

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            sparse_eig_exact(np.eye(60), 20)
        # the budget counts the C(6, 3) = 20 subsets scanned, not the 41
        # subsets of every size <= 3
        assert sparse_eig_exact(np.eye(6), 3, budget=20).subsets_examined == 20
        with pytest.raises(BudgetExceeded):
            sparse_eig_exact(np.eye(6), 3, budget=19)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(1)
        g = random_gram(rng, 25, 7)
        values = [sparse_eig_exact(g, s).value for s in range(1, 6)]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))

    def test_interlacing_on_witness(self):
        rng = np.random.default_rng(2)
        g = random_gram(rng, 25, 7)
        rep = sparse_eig_exact(g, 4)
        full = scipy.linalg.eigvalsh(g[np.ix_(rep.witness, rep.witness)])[0]
        for j in rep.witness:
            rest = [k for k in rep.witness if k != j]
            sub = scipy.linalg.eigvalsh(g[np.ix_(rest, rest)])[0]
            assert sub >= full - 1e-12


class TestSparseEigSampled:
    def test_identity_any_draws(self):
        rep = sparse_eig_sampled(np.eye(10), 4, draws=5, seed=0)
        assert rep.value == 1.0
        assert rep.method == "sampled"

    def test_exhaustive_sampling_matches_exact(self):
        rng = np.random.default_rng(3)
        g = random_gram(rng, 20, 6)
        exact = sparse_eig_exact(g, 3)
        sampled = sparse_eig_sampled(g, 3, draws=5000, seed=1)
        assert sampled.value == pytest.approx(exact.value, abs=1e-12)

    def test_upper_bounds_exact_on_embedding(self):
        # small instance with known exact value embedded in a large matrix
        rng = np.random.default_rng(4)
        g_small = random_gram(rng, 30, 15)
        g_big = np.eye(100)
        g_big[:15, :15] = g_small
        exact_small = sparse_eig_exact(g_small, 5)
        sampled = sparse_eig_sampled(g_big, 5, draws=2000, seed=7)
        assert sampled.value >= exact_small.value - 1e-12

    def test_dominates_exact(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            g = random_gram(rng, 25, 8)
            exact = sparse_eig_exact(g, 3)
            sampled = sparse_eig_sampled(g, 3, draws=20, seed=seed)
            assert sampled.value >= exact.value - 1e-12


class TestConstants:
    def test_c1_zero_noise(self):
        assert constant_c1(1, 1, 1.0, 0.0, 0.01) == pytest.approx(
            math.sqrt(2) * 0.1, abs=1e-12
        )

    def test_c1_plug_in(self):
        # s_hat + s0 = 4, phi = 1, 2 * 0.05 + sqrt(0.04) = 0.3
        assert constant_c1(2, 2, 1.0, 0.05, 0.04) == pytest.approx(0.6, abs=1e-12)

    def test_c1_rejects_bad_phi(self):
        with pytest.raises(NonpositiveEigenvalue):
            constant_c1(1, 1, 0.0, 0.1, 0.01)

    def test_c2_at_unit_phi(self):
        assert constant_c2(1.0) == pytest.approx(229.894408, abs=5e-7)

    def test_c2_at_half_phi(self):
        assert constant_c2(0.5) == pytest.approx(7325.621056, abs=2e-5)

    def test_c2_monotone_in_phi(self):
        assert constant_c2(0.4) > constant_c2(0.8)

    def test_c2_floor(self):
        # phi <= 1 on standardized designs, so c2 never drops below the
        # unit-phi value
        floor = 1.0 + 72.0 * 1.783**2
        assert round(floor, 6) == 229.894408
        rng = np.random.default_rng(6)
        for _ in range(5):
            g = random_gram(rng, 30, 6)
            phi = sparse_eig_exact(g, 3).value
            assert constant_c2(phi) >= floor - 1e-9


class TestThresholdCondition:
    def test_noiseless(self):
        assert threshold_condition(1e-8, 0.5, 0.0)

    def test_boundary_is_non_strict(self):
        assert threshold_condition(0.04, 1.0, 0.1)

    def test_just_below_boundary(self):
        assert not threshold_condition(0.0399, 1.0, 0.1)


class TestVerifyTheorem1:
    def test_noiseless_orthonormal(self):
        rng = np.random.default_rng(7)
        x = orthonormal_design(rng, 30, 5)
        theta0 = np.zeros(5)
        theta0[1] = 2.0
        ds = Dataset(x=x, y=x @ theta0, theta0=theta0, epsilon=np.zeros(30))
        fr = forward_regression(ds, t=0.5)
        report = verify_theorem1(fr, ds, 0.5, exact_eig_source(gram(ds)))
        assert report.noise_sup == pytest.approx(0.0, abs=1e-12)
        assert report.pred_bound_holds
        assert report.threshold_ok
        assert all(c.holds for c in report.c2_of_m)
        assert not report.caveat_flag

    def test_missing_ground_truth(self):
        rng = np.random.default_rng(8)
        ds = random_standardized_dataset(rng, 30, 5)
        ds_plain = Dataset(x=ds.x, y=ds.y)
        fr = forward_regression(ds_plain, t=0.1)
        with pytest.raises(MissingGroundTruth):
            verify_theorem1(fr, ds_plain, 0.1, exact_eig_source(gram(ds_plain)))

    def test_vacuous_premise(self):
        # a threshold far below the regularization floor admits no m
        rng = np.random.default_rng(9)
        ds = random_standardized_dataset(rng, 50, 8, s0=2, noise_sd=1.0)
        t = 1e-10
        fr = forward_regression(ds, t)
        report = verify_theorem1(fr, ds, t, exact_eig_source(gram(ds)))
        assert report.c2_of_m == ()
        assert not report.threshold_ok
        # the prediction bound carries no threshold premise
        assert report.pred_bound_holds


class TestVerifyTheorem3:
    def test_exact_recovery(self):
        rng = np.random.default_rng(10)
        x = orthonormal_design(rng, 30, 4)
        theta0 = np.array([3.0, 0.0, 0.0, 0.0])
        ds = Dataset(x=x, y=x @ theta0, theta0=theta0, epsilon=np.zeros(30))
        fr = forward_regression(ds, t=0.5)
        rep = sparse_eig_exact(gram(ds), fr.s_hat + 1)
        assert verify_theorem3(fr, rep) == (True, True)

    def test_tight_single_coordinate_case(self):
        # orthonormal design, deviation on one coordinate: all three
        # chain quantities coincide
        rng = np.random.default_rng(11)
        x = orthonormal_design(rng, 25, 4)
        theta0 = np.array([1.0, 0.0, 0.0, 0.0])
        # force an empty selection so theta_hat = 0 and the gap is e_0
        ds = Dataset(x=x, y=x @ theta0, theta0=theta0, epsilon=np.zeros(25))
        fr = forward_regression(ds, t=2.0)
        assert fr.support == ()
        assert fr.l1_error == fr.l2_error == pytest.approx(fr.pred_error_norm)
        rep = sparse_eig_exact(gram(ds), 1)
        assert verify_theorem3(fr, rep) == (True, True)

    def test_random_ensemble(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ds = random_standardized_dataset(rng, 60, 10, s0=2, noise_sd=0.4)
            fr = forward_regression(ds, t=0.05)
            s0 = int(np.count_nonzero(ds.theta0))
            rep = sparse_eig_exact(gram(ds), max(fr.s_hat + s0, 1))
            assert verify_theorem3(fr, rep) == (True, True)
