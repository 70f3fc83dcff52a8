import numpy as np
import pytest

from fwdreg.core_linalg import (
    Dataset,
    en_dot,
    gram,
    initial_state,
    least_squares_on_support,
    ortho_extend,
)
from fwdreg.errors import BudgetExceeded
from fwdreg.forward_select import forward_regression, score_all
from fwdreg.oracle import best_subset, loss_on_support, naive_delta_loss
from helpers import orthonormal_design, random_standardized_dataset


def schur_gain(ds, support, j):
    """Third route: incremental gain from Gram-matrix block inversion."""
    g = gram(ds.x)
    b = ds.x.T @ ds.y / ds.n
    s = sorted(support)
    if not s:
        return b[j] ** 2 / g[j, j]
    gs_inv = np.linalg.inv(g[np.ix_(s, s)])
    cross = g[np.ix_([j], s)][0]
    denom = g[j, j] - cross @ gs_inv @ cross
    numer = b[j] - cross @ gs_inv @ b[s]
    return numer**2 / denom


class TestNaiveDeltaLoss:
    def test_empty_support_closed_form(self):
        rng = np.random.default_rng(0)
        x = orthonormal_design(rng, 30, 5)
        y = rng.standard_normal(30)
        ds = Dataset(x=x, y=y)
        for j in range(5):
            assert -naive_delta_loss(ds, [], j) == pytest.approx(
                en_dot(x[:, j], y) ** 2, rel=1e-10
            )

    def test_candidate_in_span_is_zero(self):
        x = np.column_stack([np.array([-1.0, 0.0, 1.0])] * 2)
        ds = Dataset(x=x, y=np.array([1.0, 2.0, 3.0]))
        assert naive_delta_loss(ds, [0], 1) == pytest.approx(0.0, abs=1e-10)

    def test_matches_score_all_and_schur(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ds = random_standardized_dataset(rng, 50, 10)
            support = [int(k) for k in rng.permutation(10)[:3]]
            state = initial_state(ds)
            for k in support:
                state = ortho_extend(state, k, ds)
            scores = score_all(state, ds)
            for j in range(10):
                if j in support:
                    continue
                gain = -naive_delta_loss(ds, support, j)
                assert scores[j] == pytest.approx(gain, rel=1e-9, abs=1e-12)
                assert schur_gain(ds, support, j) == pytest.approx(
                    gain, rel=1e-9, abs=1e-12
                )


class TestBestSubset:
    def test_full_model(self):
        rng = np.random.default_rng(2)
        ds = random_standardized_dataset(rng, 40, 6)
        support, loss = best_subset(ds, 6)
        assert support == tuple(range(6))
        _, full_loss = least_squares_on_support(ds, range(6))
        assert loss == pytest.approx(full_loss, rel=1e-10)

    def test_noiseless_single(self):
        rng = np.random.default_rng(3)
        x = orthonormal_design(rng, 20, 4)
        ds = Dataset(x=x, y=2.0 * x[:, 1])
        support, loss = best_subset(ds, 1)
        assert support == (1,)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_k_zero(self):
        rng = np.random.default_rng(4)
        ds = random_standardized_dataset(rng, 20, 4)
        support, loss = best_subset(ds, 0)
        assert support == ()
        assert loss == pytest.approx(en_dot(ds.y, ds.y))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        ds = random_standardized_dataset(rng, 40, 8)
        losses = [best_subset(ds, k)[1] for k in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_budget(self):
        rng = np.random.default_rng(6)
        ds = random_standardized_dataset(rng, 10, 8)
        with pytest.raises(BudgetExceeded):
            best_subset(ds, 3, budget=10)

    def test_never_beaten_by_greedy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ds = random_standardized_dataset(rng, 50, 12, s0=3)
            fr = forward_regression(ds, t=0.05)
            _, exhaustive = best_subset(ds, fr.s_hat)
            assert exhaustive <= fr.loss + 1e-12


def test_loss_routes_agree():
    rng = np.random.default_rng(8)
    ds = random_standardized_dataset(rng, 60, 10)
    for support in ([], [3], [1, 7, 4]):
        _, fast = least_squares_on_support(ds, support)
        assert loss_on_support(ds, support) == pytest.approx(fast, rel=1e-9)
