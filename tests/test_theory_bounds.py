import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from fwdreg import theory_bounds
from fwdreg.core_linalg import Dataset, gram, standardize
from fwdreg.errors import (
    BudgetExceeded,
    MissingGroundTruth,
    NonpositiveEigenvalue,
)
from fwdreg.forward_select import forward_regression
from fwdreg.oracle import sparse_eig_bruteforce, sparse_eig_sampled_plain
from fwdreg.simulate import SimConfig, oracle_threshold, simulate_dataset
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


def screen_gram(kind):
    """Gram matrices on which the positive-definiteness screen of
    sparse_eig_exact meets exact zeros, near-zeros, strong correlation
    and exact ties."""
    rng = np.random.default_rng(11)
    p = 9
    if kind == "equicorrelated":
        return np.full((p, p), 0.4) + 0.6 * np.eye(p)
    n = {"p_gt_n": 6, "toeplitz": 60}.get(kind, 40)
    raw = rng.standard_normal((n, p))
    if kind == "duplicated":
        raw[:, 6] = raw[:, 2]
    elif kind == "near_collinear":
        raw[:, 6] = raw[:, 2] + 1e-7 * rng.standard_normal(n)
    elif kind == "toeplitz":
        raw = raw @ np.linalg.cholesky(scipy.linalg.toeplitz(0.9 ** np.arange(p))).T
    return gram(Dataset(x=standardize(raw), y=np.zeros(n)))


SCREEN_KINDS = ["duplicated", "near_collinear", "toeplitz", "equicorrelated", "p_gt_n"]


@st.composite
def integer_grams(draw):
    """X^T X for a small design with entries in {-1, 0, 1}: repeated,
    negated and zero columns make many subsets share a submatrix, so
    their eigenvalues tie exactly. Also draws s in 1..p+1."""
    p = draw(st.integers(2, 9))
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(-1, 1), min_size=n * p, max_size=n * p))
    x = np.array(cells, dtype=float).reshape(n, p)
    return x.T @ x, draw(st.integers(1, p + 1))


class TestSparseEigExact:
    def test_identity(self):
        rep = sparse_eig_exact(np.eye(6), 3)
        assert rep.value == 1.0
        assert rep.method == "exact"
        assert rep.witness == (0, 1, 2)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_exact_ties_keep_smallest_witness(self, s):
        assert sparse_eig_exact(np.eye(8), s).witness == tuple(range(s))
        equi = screen_gram("equicorrelated")
        assert sparse_eig_exact(equi, s).witness == tuple(range(s))

    @pytest.mark.parametrize("s", range(1, 9))  # prefix depth q = max(s - 3, 0) up to 5
    @pytest.mark.parametrize("kind", SCREEN_KINDS)
    def test_screen_matches_oracle(self, kind, s):
        g = screen_gram(kind)
        rep = sparse_eig_exact(g, s)
        assert rep.value == pytest.approx(sparse_eig_bruteforce(g, s).value, abs=1e-12)
        assert rep.subsets_examined == math.comb(g.shape[0], s)
        w = list(rep.witness)
        assert len(w) == s
        assert max(float(np.linalg.eigvalsh(g[np.ix_(w, w)])[0]), 0.0) == rep.value

    @pytest.mark.parametrize("kind", SCREEN_KINDS)
    def test_chunk_split_does_not_change_result(self, kind, monkeypatch):
        # with s = 5 and p = 9 the prefixes have q = 2 indices and the r0
        # blocks r0 = 2..6 hold 1..5 prefixes and C(7, 3) = 35..1 tails.
        # A chunk of 4 puts one prefix in each batch (4 * 3^2 = 36 is less
        # than twice 5^2, the smallest span^2) and at most 4 tails in each
        # piece; the 2000 draws are one block of 500 pieces
        g = screen_gram(kind)
        whole = sparse_eig_exact(g, 5), sparse_eig_sampled(g, 5, draws=2000, seed=0)
        calls = []
        eliminate = theory_bounds._eliminate
        monkeypatch.setattr(theory_bounds, "_eliminate",
                            lambda a, steps: (calls.append((steps, a.shape[2])),
                                              eliminate(a, steps))[1])
        monkeypatch.setattr(theory_bounds, "_CHUNK", 4)
        assert sparse_eig_exact(g, 5) == whole[0]
        batches = [width for steps, width in calls if steps == 2]
        pieces = [width for steps, width in calls if steps == 3]
        assert len(batches) == 1 + 2 + 3 + 4 + 5 and set(batches) == {1}
        assert len(pieces) == sum(math.ceil(math.comb(9 - r0, 3) / 4) * (r0 - 1)
                                  for r0 in range(2, 7))
        assert max(pieces) == 4
        assert sparse_eig_sampled(g, 5, draws=2000, seed=0) == whole[1]

    def test_equicorrelated_solves_each_block_once(self, monkeypatch):
        # rho = 0.5 ties every subset at 0.5, so nothing is screened out:
        # the partner groups, then one eigvalsh batch per r0 block
        # (r0 = 3..12 at s = 6, p = 15), not one per prefix
        calls = []
        lowest = theory_bounds._lowest
        monkeypatch.setattr(theory_bounds, "_lowest",
                            lambda g, idx: (calls.append(idx.shape[0]), lowest(g, idx))[1])
        g = np.full((15, 15), 0.5) + 0.5 * np.eye(15)
        rep = sparse_eig_exact(g, 6)
        assert rep.witness == tuple(range(6))
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert calls[0] == 15 and sum(calls[1:]) == math.comb(15, 6)
        assert len(calls) <= 1 + 10

    def test_memory_stays_bounded(self):
        # every piece and prefix batch holds at most _CHUNK 3 x 3 blocks;
        # the old 10-index tails of p = 20, s = 12 peaked at 50 MB
        g = random_gram(np.random.default_rng(17), 100, 20)
        tracemalloc.start()
        try:
            rep = sparse_eig_exact(g, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.subsets_examined == math.comb(20, 12)
        assert peak < 16_000_000

    @pytest.mark.parametrize("s", [14, 16])
    def test_rank_deficient_gram_does_not_overflow(self, s):
        # on this rank-3 Gram most LDL' pivots of G - cI fail; a matrix
        # must not be updated past its first failed pivot, or its entries
        # overflow (a RuntimeWarning, so an error in this suite)
        x = np.random.default_rng(1).integers(-1, 2, (3, 17)).astype(float)
        g = x.T @ x
        rep = sparse_eig_exact(g, s)
        lams = {c: float(np.linalg.eigvalsh(g[np.ix_(c, c)])[0])
                for c in itertools.combinations(range(17), s)}
        low = min(lams.values())
        assert rep.value == max(low, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert rep.witness == next(c for c, lam in lams.items() if lam == low)
        sampled = sparse_eig_sampled(g, s, draws=200, seed=0)
        assert sampled == sparse_eig_sampled_plain(g, s, draws=200, seed=0)

    @pytest.mark.parametrize("s", [7, 8])
    def test_size_p_solves_one_subset(self, s, monkeypatch):
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows.append(idx.shape[0]), solve(g, idx))[1])
        g = random_gram(np.random.default_rng(15), 30, 7)
        rep = sparse_eig_exact(g, s)
        assert rows == [1]
        assert rep.witness == tuple(range(7)) and rep.subsets_examined == 1
        assert rep.value == max(float(np.linalg.eigvalsh(g)[0]), 0.0)

    def test_colex_table_order(self):
        for n in range(1, 10):
            for m in range(1, n + 1):
                colex = sorted(itertools.combinations(range(n), m), key=lambda c: c[::-1])
                assert theory_bounds._colex_table(n, m).tolist() == [list(c) for c in colex]

    def test_colex_table_levels_stay_small(self):
        # the C(22, 20) = 231 rows were once built through a level of
        # C(22, 11) = 705,432 rows
        tracemalloc.start()
        try:
            table = theory_bounds._colex_table(22, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (231, 20)
        assert peak < 1_000_000

    def test_leave_one_out_at_p_40(self):
        g = random_gram(np.random.default_rng(16), 80, 40)
        rep = sparse_eig_exact(g, 39)
        subsets = [tuple(k for k in range(40) if k != j) for j in range(40)]
        lams = [scipy.linalg.eigvalsh(g[np.ix_(c, c)])[0] for c in subsets]
        assert rep.value == pytest.approx(min(lams), abs=1e-12)
        assert rep.witness == subsets[int(np.argmin(lams))]
        assert rep.subsets_examined == 40

    @given(integer_grams(), st.integers(0, 3))
    def test_tie_heavy_integer_grams(self, case, seed):
        g, s = case
        p = g.shape[0]
        rep = sparse_eig_exact(g, s)
        assert rep.value == pytest.approx(sparse_eig_bruteforce(g, s).value, abs=1e-12)
        lams = {c: float(np.linalg.eigvalsh(g[np.ix_(c, c)])[0])
                for c in itertools.combinations(range(p), min(s, p))}
        low = min(lams.values())
        assert rep.value == max(low, 0.0)
        # combinations() is lexicographic, so the first subset at the minimum
        assert rep.witness == next(c for c, lam in lams.items() if lam == low)
        sampled = sparse_eig_sampled(g, s, draws=20, seed=seed)
        assert sampled == sparse_eig_sampled_plain(g, s, draws=20, seed=seed)

    def test_partner_groups_seed_the_incumbent(self, monkeypatch):
        # the 14 partner groups are solved first; their minimum screens the
        # first block, prefix (0, 1), too, whose C(12, 3) = 220 subsets
        # would otherwise all reach eigvalsh
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows.append(idx.shape[0]), solve(g, idx))[1])
        g = random_gram(np.random.default_rng(14), 200, 14)
        rep = sparse_eig_exact(g, 5)
        ref = sparse_eig_bruteforce(g, 5)
        assert rep.value == pytest.approx(ref.value, abs=1e-12)
        assert rep.witness == ref.witness
        assert rows[0] == 14 and sum(rows[1:]) < 220

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


def test_exact_eig_source_solves_each_size_once(monkeypatch):
    sizes = []
    solve = theory_bounds.sparse_eig_exact

    def counting(g, s):
        sizes.append(s)
        return solve(g, s)

    monkeypatch.setattr(theory_bounds, "sparse_eig_exact", counting)
    g = random_gram(np.random.default_rng(16), 30, 7)
    eig = exact_eig_source(g)
    reports = [eig(s) for s in (2, 3, 2, 2, 3, 5)]
    assert sizes == [2, 3, 5]
    assert eig.cache_info().hits == 3 and eig.cache_info().misses == 3
    assert reports[0] is reports[2] is reports[3]
    assert reports[1] == solve(g, 3)


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

    @pytest.mark.parametrize("draws", [3, 2000])
    @pytest.mark.parametrize("s", [1, 3, 9])  # 9 = p: one group, range(p)
    @pytest.mark.parametrize(
        "kind", ["independent", "toeplitz", "equicorrelated", "eye", "duplicated"]
    )
    def test_matches_plain_twin(self, kind, s, draws):
        # np.eye ties every off-diagonal at 0, and the duplicated and
        # equicorrelated Grams tie partners and subsets, so the partner
        # order and the smallest-witness tie rule are both exercised
        g = np.eye(9) if kind == "eye" else screen_gram(kind)
        for seed in range(3):
            fast = sparse_eig_sampled(g, s, draws=draws, seed=seed)
            assert fast == sparse_eig_sampled_plain(g, s, draws=draws, seed=seed)

    def test_exact_ties_keep_smallest_witness(self):
        # every 10-subset of this Gram has the same submatrix, so all tie;
        # the first partner group is (0, ..., 8, 10)
        g = np.full((12, 12), 0.4) + 0.6 * np.eye(12)
        rep = sparse_eig_sampled(g, 10, draws=500, seed=0)
        assert rep.witness == tuple(range(10)) == sparse_eig_exact(g, 10).witness

    def test_screen_keeps_draws_from_eigvalsh(self, monkeypatch):
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows.append(idx.shape[0]), solve(g, idx))[1])
        g = random_gram(np.random.default_rng(13), 200, 30)
        rep = sparse_eig_sampled(g, 4, draws=500, seed=0)
        assert rep == sparse_eig_sampled_plain(g, 4, draws=500, seed=0)
        assert rep.subsets_examined == 30 + 500
        # the 30 partner groups, then at most a few draws
        assert rows[0] == 30 and sum(rows[1:]) < 25


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
        assert verify_theorem3(fr, ds, exact_eig_source(gram(ds))) == (True, True)

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
        assert verify_theorem3(fr, ds, exact_eig_source(gram(ds))) == (True, True)

    def test_random_ensemble(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ds = random_standardized_dataset(rng, 60, 10, s0=2, noise_sd=0.4)
            fr = forward_regression(ds, t=0.05)
            assert verify_theorem3(fr, ds, exact_eig_source(gram(ds))) == (True, True)

    def test_zero_eigenvalue_at_fit_size(self):
        # s_hat = 4 selections plus s0 = 3 true columns fill the n = 7
        # sample, so every size-7 subset is singular and phi_min(7) = 0
        ds = simulate_dataset(SimConfig(n=7, p=12, s0=3, noise_sd=0.3, seed=18))
        eig = exact_eig_source(gram(ds))
        fr = forward_regression(ds, oracle_threshold(ds, eig(1).value))
        with pytest.raises(NonpositiveEigenvalue,
                           match=r"at size 7 \(s_hat = 4, s0 = 3\) .*\(n = 7;"):
            verify_theorem3(fr, ds, eig)
