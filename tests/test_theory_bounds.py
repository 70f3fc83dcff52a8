import dataclasses
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
from fwdreg.simulate import SimConfig, nested_samples, oracle_threshold, simulate_dataset
from fwdreg.theory_bounds import (
    constant_c1,
    constant_c2,
    exact_eig_source,
    sparse_eig_exact,
    sparse_eig_sampled,
    threshold_condition,
    verify_theorem1,
)
from helpers import orthonormal_design, random_standardized_dataset


def random_gram(rng, n, p):
    x = rng.standard_normal((n, p))
    standardize(x)
    return gram(x)


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
    standardize(raw)
    return gram(raw)


SCREEN_KINDS = ["duplicated", "near_collinear", "toeplitz", "equicorrelated", "p_gt_n"]


@st.composite
def integer_grams(draw, max_p=9, extreme_sizes=False):
    """X^T X for a small design with entries in {-1, 0, 1}: repeated,
    negated and zero columns make many subsets share a submatrix, so
    their eigenvalues tie exactly. Also draws s in 1..p+1, or only 1 and
    p - 1 with ``extreme_sizes``."""
    p = draw(st.integers(2, max_p))
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(-1, 1), min_size=n * p, max_size=n * p))
    x = np.array(cells, dtype=float).reshape(n, p)
    sizes = st.sampled_from([1, p - 1]) if extreme_sizes else st.integers(1, p + 1)
    return x.T @ x, draw(sizes)


@st.composite
def tied_rows(draw):
    """Rows of keys from a handful of values, -inf and both signed zeros
    among them, so most rows tie at their k-th smallest value; and k."""
    rows, p = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0]),
                          min_size=rows * p, max_size=rows * p))
    return np.array(cells).reshape(rows, p), draw(st.integers(1, p))


def _check_tie_heavy(g, s):
    """Both paths against plain enumeration and the sampled twin."""
    p = g.shape[0]
    rep = sparse_eig_exact(g, s)
    assert rep.value == pytest.approx(sparse_eig_bruteforce(g, s).value, abs=1e-12)
    lams = {c: float(np.linalg.eigvalsh(g[np.ix_(c, c)])[0])
            for c in itertools.combinations(range(p), min(s, p))}
    low = min(lams.values())
    assert rep.value == max(low, 0.0)
    # combinations() is lexicographic, so the first subset at the minimum
    assert rep.witness == next(c for c, lam in lams.items() if lam == low)
    assert sparse_eig_sampled(g, s) == sparse_eig_sampled_plain(g, s)


@given(tied_rows())
def test_smallest_matches_stable_argsort(case):
    keys, k = case
    got = theory_bounds._smallest(keys, k)
    want = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


class TestSparseEigExact:
    def test_identity(self):
        rep = sparse_eig_exact(np.eye(6), 3)
        assert rep.lower == rep.value == 1.0
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
        # blocks r0 = 2..6 hold 1..5 prefixes of span 9..5 and
        # C(7, 3) = 35..1 tails of m = 3. A budget of 100 float64 entries
        # puts 100 // span^2 = 1, 1, 2, 2, 4 prefixes in each batch of a
        # block, and 100 // (3^2 w) = 11, 5, 2 tails in each piece of a
        # batch of w = 1, 2, 4 prefixes
        g = screen_gram(kind)
        whole = sparse_eig_exact(g, 5), sparse_eig_sampled(g, 5)
        calls = []
        eliminate = theory_bounds._eliminate
        monkeypatch.setattr(theory_bounds, "_eliminate",
                            lambda a, steps: (calls.append((steps, a.shape)),
                                              eliminate(a, steps))[1])
        monkeypatch.setattr(theory_bounds, "_CHUNK", 100)
        assert sparse_eig_exact(g, 5) == whole[0]
        batches = [shape for steps, shape in calls if steps == 2]
        pieces = [shape for steps, shape in calls if steps == 3]
        assert [shape[2] for shape in batches] == [1, 1, 1, 2, 1, 2, 2, 4, 1]
        assert max(math.prod(shape) for shape in batches) == 100  # 4 prefixes of 5 x 5
        # per r0 block: ceil(tails / per_piece) pieces for each batch
        assert len(pieces) == 4 + (2 + 2) + (2 + 1) + (1 + 1) + (1 + 1)
        assert max(math.prod(shape) for shape in pieces) == 9 * 11
        assert sparse_eig_sampled(g, 5) == whole[1]

    def test_equicorrelated_solves_each_block_once(self, monkeypatch):
        # rho = 0.5 ties every subset at 0.5, so nothing is screened out:
        # the 8 seed groups, then one eigvalsh batch per r0 block
        # (r0 = 3..12 at s = 6, p = 15), not one per prefix
        calls = []
        lowest = theory_bounds._lowest
        monkeypatch.setattr(theory_bounds, "_lowest",
                            lambda g, idx: (calls.append(idx.shape[0]), lowest(g, idx))[1])
        g = np.full((15, 15), 0.5) + 0.5 * np.eye(15)
        rep = sparse_eig_exact(g, 6)
        assert rep.witness == tuple(range(6))
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert calls[0] == theory_bounds._SEED_GROUPS == 8
        assert sum(calls[1:]) == math.comb(15, 6)
        assert len(calls) <= 1 + 10

    def test_memory_stays_bounded(self):
        # every piece and prefix batch holds at most _CHUNK float64 entries;
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
        assert sparse_eig_sampled(g, s) == sparse_eig_sampled_plain(g, s)

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

    @given(integer_grams())
    def test_tie_heavy_integer_grams(self, case):
        _check_tie_heavy(*case)

    @given(integer_grams(max_p=8, extreme_sizes=True))
    def test_tie_heavy_extreme_sizes(self, case):
        # p <= 8 leaves every partner group in the seed; k = 1 and
        # k = p - 1 are the edges of the prefix split and of the top-k
        _check_tie_heavy(*case)

    def test_partner_groups_seed_the_incumbent(self, monkeypatch):
        # the 8 seed groups of the 14 are solved first; their minimum
        # screens the first block, prefix (0, 1), too, whose C(12, 3) = 220
        # subsets would otherwise all reach eigvalsh
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows.append(idx.shape[0]), solve(g, idx))[1])
        g = random_gram(np.random.default_rng(14), 200, 14)
        rep = sparse_eig_exact(g, 5)
        ref = sparse_eig_bruteforce(g, 5)
        assert rep.value == pytest.approx(ref.value, abs=1e-12)
        assert rep.witness == ref.witness
        assert rows[0] == 8 and sum(rows[1:]) < 220

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

    def test_budget_exceeded(self, monkeypatch):
        with pytest.raises(BudgetExceeded):
            sparse_eig_exact(np.eye(60), 20)
        # the budget counts the C(6, 3) = 20 subsets scanned, not the 41
        # subsets of every size <= 3
        monkeypatch.setattr(theory_bounds, "DEFAULT_SUBSET_BUDGET", 20)
        assert sparse_eig_exact(np.eye(6), 3).subsets_examined == 20
        monkeypatch.setattr(theory_bounds, "DEFAULT_SUBSET_BUDGET", 19)
        with pytest.raises(BudgetExceeded):
            sparse_eig_exact(np.eye(6), 3)

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
    def test_identity(self):
        rep = sparse_eig_sampled(np.eye(10), 4)
        assert rep.value == 1.0
        assert rep.lower == 0.0

    def test_descent_reaches_exact_on_small_gram(self):
        # the groups alone stop 39% above the exact value; one swap reaches it
        g = random_gram(np.random.default_rng(3), 20, 10)
        exact = sparse_eig_exact(g, 4)
        groups = theory_bounds._lowest(g, theory_bounds._partner_groups(g, 4))
        assert groups[0] > 1.38 * exact.value
        sampled = sparse_eig_sampled(g, 4)
        assert sampled.value == pytest.approx(exact.value, abs=1e-12)
        assert sampled.witness == exact.witness
        assert sampled.subsets_examined == 10 + 1

    def test_upper_bounds_exact_on_embedding(self):
        # small instance with known exact value embedded in a large matrix
        rng = np.random.default_rng(4)
        g_small = random_gram(rng, 30, 15)
        g_big = np.eye(100)
        g_big[:15, :15] = g_small
        exact_small = sparse_eig_exact(g_small, 5)
        sampled = sparse_eig_sampled(g_big, 5)
        assert sampled.value >= exact_small.value - 1e-12

    def test_dominates_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_gram(rng, 25, 8)
            exact = sparse_eig_exact(g, 3)
            sampled = sparse_eig_sampled(g, 3)
            assert sampled.value >= exact.value - 1e-12

    # s = 1 leaves every u_i = 0, so the descent has no move; 9 = p is one
    # group, range(p), and no descent
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 9])
    @pytest.mark.parametrize(
        "kind", ["independent", "toeplitz", "equicorrelated", "eye", "duplicated"]
    )
    def test_matches_plain_twin(self, kind, s):
        # np.eye ties every off-diagonal at 0, and the duplicated and
        # equicorrelated Grams tie partners, subsets and swap bounds, so the
        # partner order and both tie rules are exercised
        g = np.eye(9) if kind == "eye" else screen_gram(kind)
        assert sparse_eig_sampled(g, s) == sparse_eig_sampled_plain(g, s)

    @pytest.mark.parametrize("seed, moves", [(8, 3), (16, 3), (19, 4), (20, 3)])
    def test_matches_plain_twin_over_several_moves(self, seed, moves):
        # the descent of the Grams above makes no move; these p = 30 Grams
        # each take a few at k = 6
        g = random_gram(np.random.default_rng(seed), 40, 30)
        rep = sparse_eig_sampled(g, 6)
        assert rep.subsets_examined == 30 + moves
        assert rep == sparse_eig_sampled_plain(g, 6)

    def test_exact_ties_keep_smallest_witness(self):
        # every 10-subset of this Gram has the same submatrix, so all tie;
        # the first partner group is (0, ..., 9)
        g = np.full((12, 12), 0.4) + 0.6 * np.eye(12)
        rep = sparse_eig_sampled(g, 10)
        assert rep.witness == tuple(range(10)) == sparse_eig_exact(g, 10).witness
        assert rep.subsets_examined == 12

    def test_screen_keeps_groups_from_eigvalsh(self, monkeypatch):
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows.append(idx.shape[0]), solve(g, idx))[1])
        g = random_gram(np.random.default_rng(13), 200, 30)
        rep = sparse_eig_sampled(g, 4)
        assert rep == sparse_eig_sampled_plain(g, 4)
        # the 8 seed groups, then at most a few of the other 22 groups;
        # the descent solves its one subset with eigh
        assert rows[0] == 8 and sum(rows[1:]) < 25
        assert rep.subsets_examined == 30 + 1

    def test_rates_sweep_grams_keep_eigvalsh_traffic_low(self, monkeypatch):
        # the rates_sweep benchmark config (Toeplitz rho = 0.5, p = 200,
        # s0 = 5, so k = 10) at every grid n of one replication: the 8 seed
        # groups and the few of the 192 other groups that survive the
        # screen, against all 200 groups at k = 10 before the seed; then
        # a descent of a few moves
        cfg = SimConfig(n=1600, p=200, s0=5, design="toeplitz", rho=0.5,
                        theta_pattern="decaying", c=2.0, rate=0.5, noise_sd=1.0,
                        seed=3 + 3 * 1_000_003)
        grams = [gram(ds.x) for ds in nested_samples(cfg, (200, 400, 800, 1600))][::-1]
        groups = [theory_bounds._lowest(g, theory_bounds._partner_groups(g, 10))[0]
                  for g in grams]
        rows = []
        solve = theory_bounds._batched_min_eig
        monkeypatch.setattr(theory_bounds, "_batched_min_eig",
                            lambda g, idx: (rows[-1].append(idx.shape[0]), solve(g, idx))[1])
        reports = []
        for g in grams:
            rows.append([])
            reports.append(sparse_eig_sampled(g, 10))
            assert rows[-1][0] == 8
        assert max(sum(r) for r in rows) <= 50, rows
        assert [rep.subsets_examined - 200 for rep in reports] == [3, 3, 2, 1]
        # the descent lowers the groups' value by 14.6%, 5.1%, 1.8% and 0.8%
        assert all(rep.value < 0.99 * low for rep, low in zip(reports[:3], groups))
        assert reports[3].value < groups[3]


@st.composite
def seeded_grams(draw):
    """The Gram of a standardized Gaussian design at a drawn seed, n and
    p <= 9 (n < p among them), and s in 1..p+1."""
    p = draw(st.integers(2, 9))
    g = random_gram(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                    draw(st.integers(2, 30)), p)
    return g, draw(st.integers(1, p + 1))


class TestSparseEigInterval:
    """sparse_eig reports phi_min(s) as [lower, value]: the exact value
    within the subset budget, the descent's upper end and 0 over it."""

    @given(st.one_of(integer_grams(), seeded_grams()))
    def test_within_budget_is_exact(self, case):
        g, s = case
        rep = theory_bounds.sparse_eig(g, s)
        assert rep == sparse_eig_exact(g, s)
        assert rep.lower == rep.value
        assert rep.value == pytest.approx(sparse_eig_bruteforce(g, s).value, abs=1e-12)

    @given(st.one_of(integer_grams(), seeded_grams()))
    def test_over_budget_brackets_the_exact_value(self, case):
        g, s = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theory_bounds, "DEFAULT_SUBSET_BUDGET", 0)
            rep = theory_bounds.sparse_eig(g, s)
        assert rep == sparse_eig_sampled(g, s)
        # the descent's eigh and the enumeration's eigvalsh round apart on ties
        assert rep.lower == 0.0 <= sparse_eig_bruteforce(g, s).value <= rep.value + 1e-9


class TestExchangeDescent:
    """Properties of the exchange descent of sparse_eig_sampled on the
    tie-heavy integer Grams, and its three numerical edge cases."""

    @given(integer_grams())
    def test_stays_an_upper_bound(self, case):
        g, s = case
        assert sparse_eig_sampled(g, s).value >= sparse_eig_bruteforce(g, s).value - 1e-9

    @given(integer_grams())
    def test_never_above_the_groups(self, case):
        g, s = case
        size = min(s, g.shape[0])
        groups = theory_bounds._lowest(g, theory_bounds._partner_groups(g, size))
        assert sparse_eig_sampled(g, s).value <= max(groups[0], 0.0)

    @given(integer_grams())
    def test_repeatable(self, case):
        assert sparse_eig_sampled(*case) == sparse_eig_sampled(*case)

    def test_rounding_ties_end_the_descent(self, monkeypatch):
        # lambda_min of G_S is 0 on both (0, 1, 5) and (0, 2, 5); eigh puts
        # it at 2.6e-17 on both and eigvalsh at -1.8e-16, so a descent that
        # compared a swap's eigvalsh with the incumbent's eigh, or took any
        # decrease, swapped between the two for ever
        x = np.array([[1.0, 0, 0, 0, 1, 1], [-1, -1, 1, 0, 0, -1]])
        g = x.T @ x
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            if len(calls) > 50:
                pytest.fail("the descent did not end")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rep = sparse_eig_sampled(g, 3)
        assert rep == sparse_eig_sampled_plain(g, 3)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.value == sparse_eig_bruteforce(g, 3).value

    def test_swap_no_lower_than_the_incumbent_ends_the_descent(self, monkeypatch):
        # the Rayleigh bound lies above the swap's lambda_min, so only
        # rounding can make the solved swap come out no lower than the
        # incumbent; here eigh reports the incumbent's lambda for it. On
        # this Gram the descent makes one swap (see
        # TestSparseEigSampled.test_descent_reaches_exact_on_small_gram)
        g = random_gram(np.random.default_rng(3), 20, 10)
        start = theory_bounds._lowest(g, theory_bounds._partner_groups(g, 4))
        assert theory_bounds._descend(g, 4, start)[0][0] < start[0]
        eigh, lams_seen = np.linalg.eigh, []

        def no_lower(a):
            lams, vecs = eigh(a)
            lams_seen.append(lams[0])
            if len(lams_seen) == 2:  # the swap, after the incumbent
                lams[0] = lams_seen[0]
            return lams, vecs

        monkeypatch.setattr(np.linalg, "eigh", no_lower)
        assert theory_bounds._descend(g, 4, start) == (start, 1)

    def test_concentrated_eigenvector_has_no_trial_vector(self):
        # column 0 is uncorrelated with the rest and has the smallest
        # variance, so v = e_0 on the witness (0, 1): m_0 = 0, which the
        # bounds leave out without dividing by it
        g = np.full((6, 6), 0.3) + 0.7 * np.eye(6)
        g[0, 1:] = g[1:, 0] = 0.0
        g[0, 0] = 0.2
        with np.errstate(all="raise"):
            rep = sparse_eig_sampled(g, 2)
        assert rep.witness == (0, 1) and rep.value == 0.2
        assert rep == sparse_eig_sampled_plain(g, 2)


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
        report = verify_theorem1(fr, ds, 0.5, exact_eig_source(gram(ds.x)))
        assert report.noise_sup == pytest.approx(0.0, abs=1e-12)
        assert report.pred_bound_holds
        assert report.threshold_ok
        assert report.c2_of_m and all(c.holds for c in report.c2_of_m)
        assert report.count_bound_holds
        assert report.holds

    def test_missing_ground_truth(self):
        rng = np.random.default_rng(8)
        ds = random_standardized_dataset(rng, 30, 5)
        ds_plain = Dataset(x=ds.x, y=ds.y)
        fr = forward_regression(ds_plain, t=0.1)
        with pytest.raises(MissingGroundTruth):
            verify_theorem1(fr, ds_plain, 0.1, exact_eig_source(gram(ds_plain.x)))

    def test_vacuous_premise(self):
        # a threshold far below the regularization floor admits no m
        rng = np.random.default_rng(9)
        ds = random_standardized_dataset(rng, 50, 8, s0=2, noise_sd=1.0)
        t = 1e-10
        fr = forward_regression(ds, t)
        report = verify_theorem1(fr, ds, t, exact_eig_source(gram(ds.x)))
        assert report.c2_of_m == ()
        assert not report.threshold_ok
        # no m is admitted, so the count bound holds vacuously
        assert report.count_bound_holds
        # the prediction bound carries no threshold premise
        assert report.pred_bound_holds


def theorem3(fr, ds, t, eig=None):
    """The Theorem-3 verdicts (l2, l1) of verify_theorem1."""
    report = verify_theorem1(fr, ds, t, eig or exact_eig_source(gram(ds.x)))
    return report.theorem3_l2_ok, report.theorem3_l1_ok


class TestVerifyTheorem3:
    """The parameter-error chain that verify_theorem1 reports."""

    def test_exact_recovery(self):
        rng = np.random.default_rng(10)
        x = orthonormal_design(rng, 30, 4)
        theta0 = np.array([3.0, 0.0, 0.0, 0.0])
        ds = Dataset(x=x, y=x @ theta0, theta0=theta0, epsilon=np.zeros(30))
        fr = forward_regression(ds, t=0.5)
        assert theorem3(fr, ds, 0.5) == (True, True)

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
        assert theorem3(fr, ds, 2.0) == (True, True)

    def test_random_ensemble(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ds = random_standardized_dataset(rng, 60, 10, s0=2, noise_sd=0.4)
            fr = forward_regression(ds, t=0.05)
            assert theorem3(fr, ds, 0.05) == (True, True)

    def test_chain_is_evaluated_at_the_fit_size_phi(self):
        """l2 <= phi^{-1} * pred_error_norm reads phi_min(s_hat + s0): a
        prediction error just above phi * l2 passes and one just below
        fails, where phi_min(s0), the count loop's first size, would pass
        both."""
        ds = simulate_dataset(SimConfig(n=60, p=10, s0=2, noise_sd=0.5, seed=21))
        g = gram(ds.x)
        t = oracle_threshold(ds, sparse_eig_exact(g, 4).value)
        fr = forward_regression(ds, t)
        phi = sparse_eig_exact(g, fr.s_hat + 2).value
        assert sparse_eig_exact(g, 2).value > phi * (1 + 1e-6)
        for factor, holds in ((1 + 1e-6, True), (1 - 1e-6, False)):
            fake = dataclasses.replace(fr, pred_error_norm=phi * fr.l2_error * factor)
            assert theorem3(fake, ds, t)[0] is holds

    def test_zero_eigenvalue_at_fit_size(self):
        # s_hat = 4 selections plus s0 = 3 true columns fill the n = 7
        # sample, so every size-7 subset is singular and phi_min(7) = 0
        ds = simulate_dataset(SimConfig(n=7, p=12, s0=3, noise_sd=0.3, seed=18))
        eig = exact_eig_source(gram(ds.x))
        t = oracle_threshold(ds, eig(1).value)
        fr = forward_regression(ds, t)
        with pytest.raises(NonpositiveEigenvalue,
                           match=r"at size 7 \(s_hat = 4, s0 = 3\) .*\(n = 7;"):
            theorem3(fr, ds, t, eig)


class TestExactEigenvaluesOnly:
    """A sampled phi only upper-bounds phi_min, so a premise met with it
    may not hold: the bound checks refuse any phi that is not exact."""

    def _fit(self):
        ds = simulate_dataset(SimConfig(n=60, p=10, s0=2, noise_sd=0.5, seed=21))
        g = gram(ds.x)
        t = oracle_threshold(ds, sparse_eig_exact(g, 4).value)
        fr = forward_regression(ds, t)
        assert fr.s_hat >= 1  # so the fit size s_hat + 2 differs from m + s0 at m = 0
        return ds, g, fr, t

    def test_sampled_source_rejected(self):
        # the fit size is looked up first
        ds, g, fr, t = self._fit()

        def sampled(size):
            return sparse_eig_sampled(g, size)

        with pytest.raises(ValueError, match=(
                rf"exact phi_min\({fr.s_hat + 2}\), not the interval \[0\.0, ")):
            verify_theorem1(fr, ds, t, sampled)

    def test_every_count_size_checked(self):
        # exact at the fit size only: the count loop's first size, s0 = 2,
        # is refused on its own
        ds, g, fr, t = self._fit()

        def mixed(size):
            if size == fr.s_hat + 2:
                return sparse_eig_exact(g, size)
            return sparse_eig_sampled(g, size)

        with pytest.raises(ValueError, match=r"exact phi_min\(2\), not the interval \[0\.0, "):
            verify_theorem1(fr, ds, t, mixed)
