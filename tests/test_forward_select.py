import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fwdreg.cli import read_dataset
from fwdreg.core_linalg import (
    Dataset,
    column_moments,
    en_dot,
    gram,
    initial_state,
    least_squares_on_support,
    ortho_extend,
    standardize,
)
from fwdreg.errors import CollinearCandidate, NotStandardized, NumericOverflow
from fwdreg.forward_select import forward_regression, parameter_errors, score_all
from fwdreg.oracle import naive_delta_loss
from fwdreg.theory_bounds import sparse_eig_exact
from helpers import orthonormal_design, random_standardized_dataset


class TestScoreAll:
    def test_orthonormal_empty_state(self):
        rng = np.random.default_rng(0)
        x = orthonormal_design(rng, 30, 5)
        y = rng.standard_normal(30)
        ds = Dataset(x=x, y=y)
        scores = score_all(initial_state(ds))
        expected = (x.T @ y / 30) ** 2
        np.testing.assert_allclose(scores, expected, rtol=1e-10)

    def test_selected_is_sentineled(self):
        rng = np.random.default_rng(1)
        ds = random_standardized_dataset(rng, 30, 6)
        state = ortho_extend(initial_state(ds), 2, ds)
        scores = score_all(state)
        assert scores[2] == -np.inf

    def test_matches_refit_difference(self):
        """Every finite entry equals l(S) - l(S u {j}) via two refits."""
        rng = np.random.default_rng(2)
        ds = random_standardized_dataset(rng, 30, 12)
        state = initial_state(ds)
        for j in [1, 5, 9]:
            state = ortho_extend(state, j, ds)
        scores = score_all(state)
        _, loss_s = least_squares_on_support(ds, state.support)
        for j in range(12):
            if not np.isfinite(scores[j]):
                continue
            _, loss_sj = least_squares_on_support(ds, list(state.support) + [j])
            assert scores[j] == pytest.approx(loss_s - loss_sj, rel=1e-9, abs=1e-12)


class TestForwardRegression:
    def test_noiseless_orthogonal_recovery(self):
        rng = np.random.default_rng(3)
        x = orthonormal_design(rng, 20, 4)
        theta0 = np.array([2.0, 0.0, 0.0, 0.0])
        ds = Dataset(x=x, y=x @ theta0, theta0=theta0, epsilon=np.zeros(20))
        fr = forward_regression(ds, t=1.0)
        assert fr.support == (0,)
        assert fr.steps[0].gain == pytest.approx(4.0, rel=1e-10)
        assert fr.theta_hat[0] == pytest.approx(2.0, abs=1e-10)
        assert fr.loss == pytest.approx(0.0, abs=1e-12)
        assert fr.pred_error_norm == pytest.approx(0.0, abs=1e-10)

    def test_threshold_dominates_total_variance(self):
        rng = np.random.default_rng(4)
        ds = random_standardized_dataset(rng, 50, 8)
        fr = forward_regression(ds, t=en_dot(ds.y, ds.y) * 1.001)
        assert fr.support == ()
        assert np.all(fr.theta_hat == 0)

    def test_requires_standardized_design(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4)) + 3.0
        ds = Dataset(x=x, y=rng.standard_normal(30))
        with pytest.raises(NotStandardized):
            forward_regression(ds, t=0.1)

    @pytest.mark.parametrize("factor, ok", [(1 + 0.4e-8, True), (1 + 2e-8, False), (2.0, False)])
    def test_second_moment_tolerance(self, factor, ok):
        """A centred design passes when every (1/n) second moment is within
        STANDARDIZED_TOL = 1e-8 of 1 and is refused otherwise."""
        rng = np.random.default_rng(5)
        ds = random_standardized_dataset(rng, 30, 4)
        scaled = Dataset(x=ds.x * np.sqrt(factor), y=ds.y)
        if ok:
            forward_regression(scaled, t=0.1)
        else:
            with pytest.raises(NotStandardized,
                               match="columns must be centered with unit second moment"):
                forward_regression(scaled, t=0.1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_response_rejected(self):
        """A starting loss E_n[y^2] past float64 is refused before any step,
        without numpy's overflow warning."""
        rng = np.random.default_rng(6)
        ds = random_standardized_dataset(rng, 20, 4)
        with pytest.raises(NumericOverflow, match=r"the response is too large: its \(1/n\) "
                                                  r"second moment E_n\[y\^2\] overflows float64"):
            forward_regression(Dataset(x=ds.x, y=ds.y * 1e200), t=0.1)

    def test_one_second_moment_pass_per_fit(self, monkeypatch):
        """The column norms that the standardization check reads come from
        the starting state, so a fit runs the ij,ij->j einsum once."""
        calls = []
        einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        ds = random_standardized_dataset(np.random.default_rng(6), 60, 12, s0=3)
        monkeypatch.setattr(np, "einsum", spy)
        fr = forward_regression(ds, t=0.05)
        assert fr.s_hat >= 2
        assert calls.count("ij,ij->j") == 1

    def test_requires_positive_threshold(self):
        rng = np.random.default_rng(6)
        ds = random_standardized_dataset(rng, 20, 4)
        with pytest.raises(ValueError):
            forward_regression(ds, t=0.0)

    def test_matches_hand_driven_replay(self):
        """Replay the loop using only full least-squares refits."""
        rng = np.random.default_rng(7)
        ds = random_standardized_dataset(rng, 100, 50, s0=3, noise_sd=0.1)
        true = np.flatnonzero(ds.theta0)
        _, oracle_loss = least_squares_on_support(ds, true)
        gains = []
        for j in true:
            _, without = least_squares_on_support(ds, [k for k in true if k != j])
            gains.append(without - oracle_loss)
        t = 0.5 * min(gains)

        fr = forward_regression(ds, t)

        support: list[int] = []
        replay: list[int] = []
        while True:
            _, loss_s = least_squares_on_support(ds, support)
            best_j, best_gain = None, t
            for j in range(ds.p):
                if j in support:
                    continue
                _, loss_sj = least_squares_on_support(ds, support + [j])
                g = loss_s - loss_sj
                if g > best_gain:
                    best_j, best_gain = j, g
            if best_j is None:
                break
            support.append(best_j)
            replay.append(best_j)
        assert [s.index for s in fr.steps] == replay
        theta_replay, _ = least_squares_on_support(ds, support)
        np.testing.assert_allclose(fr.theta_hat, theta_replay, atol=1e-9)


class TestParameterErrors:
    def test_exact_recovery(self):
        rng = np.random.default_rng(9)
        ds = random_standardized_dataset(rng, 30, 5)
        l2, l1, pred = parameter_errors(ds, ds.theta0.copy(), ds.theta0)
        assert (l2, l1, pred) == (0.0, 0.0, 0.0)

    def test_single_coordinate_deviation(self):
        rng = np.random.default_rng(10)
        ds = random_standardized_dataset(rng, 40, 6)
        theta_hat = ds.theta0 - np.eye(6)[3]
        l2, l1, pred = parameter_errors(ds, theta_hat, ds.theta0)
        assert l2 == pytest.approx(1.0)
        assert l1 == pytest.approx(1.0)
        assert pred == pytest.approx(1.0, rel=1e-10)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = random_standardized_dataset(rng, 30, 8)
            theta_hat = ds.theta0 + rng.standard_normal(8) * (rng.random(8) > 0.5)
            l2, l1, _ = parameter_errors(ds, theta_hat, ds.theta0)
            nnz = np.count_nonzero(ds.theta0 - theta_hat)
            assert l1 <= np.sqrt(nnz) * l2 * (1 + 1e-12)


def test_strict_threshold_stopping():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ds = random_standardized_dataset(rng, 60, 15, s0=3)
        t = 0.05
        fr = forward_regression(ds, t)
        assert all(s.gain > t for s in fr.steps)
        state = initial_state(ds)
        for s in fr.steps:
            state = ortho_extend(state, s.index, ds)
        final_scores = score_all(state)
        finite = final_scores[np.isfinite(final_scores)]
        assert np.all(finite <= t)


def test_gain_equal_to_threshold_is_not_selected():
    """Stopping is strict at equality: with t set to the first gain a fit
    records, the same leader and gain come up and the loop stops at once."""
    ds = random_standardized_dataset(np.random.default_rng(12), 60, 15, s0=3)
    first = forward_regression(ds, 0.05).steps[0].gain
    fr = forward_regression(ds, first)
    assert fr.s_hat == 0
    assert fr.support == ()


def test_greedy_dominance():
    rng = np.random.default_rng(13)
    ds = random_standardized_dataset(rng, 50, 10, s0=3)
    fr = forward_regression(ds, t=0.02)
    state = initial_state(ds)
    for s in fr.steps:
        scores = score_all(state)
        finite_max = np.max(scores[np.isfinite(scores)])
        assert s.gain >= finite_max - 1e-12
        state = ortho_extend(state, s.index, ds)


def test_trace_loss_bookkeeping():
    rng = np.random.default_rng(14)
    ds = random_standardized_dataset(rng, 80, 20, s0=4)
    fr = forward_regression(ds, t=0.01)
    prev = en_dot(ds.y, ds.y)
    for s in fr.steps:
        assert s.loss_after == pytest.approx(prev - s.gain, abs=1e-10)
        assert s.loss_after < prev
        prev = s.loss_after
    # least-squares optimality via the normal-equation residual
    resid = ds.y - ds.x @ fr.theta_hat
    stationarity = ds.x[:, list(fr.support)].T @ resid / ds.n
    assert np.max(np.abs(stationarity)) < 1e-10 if fr.support else True


def test_determinism():
    rng = np.random.default_rng(15)
    ds = random_standardized_dataset(rng, 60, 12, s0=3)
    a = forward_regression(ds, t=0.03)
    b = forward_regression(ds, t=0.03)
    assert a.steps == b.steps
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)


def test_chained_inequality_with_exact_eigenvalues():
    rng = np.random.default_rng(16)
    for _ in range(10):
        ds = random_standardized_dataset(rng, 80, 12, s0=2, noise_sd=0.3)
        fr = forward_regression(ds, t=0.05)
        s0 = int(np.count_nonzero(ds.theta0))
        k = max(fr.s_hat + s0, 1)
        phi = sparse_eig_exact(gram(ds.x), k).value
        root = np.sqrt(fr.s_hat + s0)
        assert fr.l1_error <= root * fr.l2_error * (1 + 1e-9) + 1e-15
        assert fr.l2_error <= fr.pred_error_norm / phi * (1 + 1e-9) + 1e-15


def _near_collinear_dataset(seed):
    """Column 2 within 3e-5 of x0 + x1, and a response dominated by them."""
    rng = np.random.default_rng(seed)
    n = 100
    x = rng.standard_normal((n, 6))
    z = rng.standard_normal(n)
    x[:, 2] = x[:, 0] + x[:, 1] + 3e-5 * z
    standardize(x)
    return Dataset(x=x, y=300.0 * (x[:, 0] + x[:, 1]) + z - z.mean())


@pytest.mark.parametrize("seed", range(5))
def test_near_collinear_gains_match_refits(seed):
    """Column 2 lies within 3e-5 of span(x0, x1), so once two of the three
    are in, the third has a residual norm^2 near COLLINEAR_TOL and carried
    norms lose most of their digits. Each recorded gain must still equal
    the loss drop of two refits."""
    ds = _near_collinear_dataset(seed)
    fr = forward_regression(ds, t=1e-6)
    assert {0, 1, 2} <= set(fr.support)
    support: list[int] = []
    for s in fr.steps:
        _, before = least_squares_on_support(ds, support)
        support.append(s.index)
        _, after = least_squares_on_support(ds, support)
        assert s.gain == pytest.approx(before - after, rel=1e-9, abs=0)


@st.composite
def fit_cases(draw):
    """A seeded sparse dataset and a threshold, kept away from ties and
    saturation (n >= 2p, t >= 1e-4) where rounding alone can reorder the
    path."""
    p = draw(st.integers(2, 12))
    n = draw(st.integers(2 * p, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = random_standardized_dataset(rng, n, p, s0=min(3, p))
    t = draw(st.floats(1e-4, 0.5))
    return Dataset(x=ds.x, y=ds.y), t, rng


def _same_loss(a, b, ds):
    return abs(a.loss - b.loss) <= 1e-9 * en_dot(ds.y, ds.y)


class TestMetamorphic:
    @given(fit_cases(), st.data())
    def test_duplicated_column(self, case, data):
        ds, t, _ = case
        j = data.draw(st.integers(0, ds.p - 1))
        dup = Dataset(x=np.column_stack([ds.x, ds.x[:, j]]), y=ds.y)
        base, fr = forward_regression(ds, t), forward_regression(dup, t)
        assert _same_loss(base, fr, ds)
        assert not {j, ds.p} <= set(fr.support)

    @given(fit_cases())
    def test_column_permutation(self, case):
        ds, t, rng = case
        perm = rng.permutation(ds.p)
        base = forward_regression(ds, t)
        fr = forward_regression(Dataset(x=ds.x[:, perm], y=ds.y), t)
        assert tuple(sorted(int(perm[k]) for k in fr.support)) == base.support
        assert _same_loss(base, fr, ds)

    @given(
        fit_cases(),
        st.data(),
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.booleans(),
        st.floats(-10.0, 10.0),
    )
    def test_affine_rescaling_of_a_column(self, case, data, scale, flip, shift):
        """Fitting on raw columns standardizes them first, as the fit
        command does, so a*x_j + b gives the same support and column j's
        original-unit coefficient scales by 1/a."""
        ds, t, _ = case
        j = data.draw(st.integers(0, ds.p - 1))
        a = -scale if flip else scale
        raw = ds.x.copy()
        raw[:, j] = a * raw[:, j] + shift

        def fit_original_units(x):
            mean, sd = column_moments(x)
            fr = forward_regression(Dataset(x=(x - mean) / sd, y=ds.y), t)
            return fr, fr.theta_hat / sd

        base, beta = fit_original_units(ds.x)
        fr, beta_scaled = fit_original_units(raw)
        assert fr.support == base.support
        assert _same_loss(base, fr, ds)
        expected = beta.copy()
        expected[j] /= a
        np.testing.assert_allclose(beta_scaled, expected, rtol=1e-7, atol=1e-12)

    @given(fit_cases())
    def test_row_permutation(self, case):
        ds, t, rng = case
        perm = rng.permutation(ds.n)
        base = forward_regression(ds, t)
        fr = forward_regression(Dataset(x=ds.x[perm], y=ds.y[perm]), t)
        assert fr.support == base.support
        assert _same_loss(base, fr, ds)


CARRIED_CASES = {
    "random": (lambda: random_standardized_dataset(np.random.default_rng(17), 80, 20, s0=4),
               0.01),
    "near_collinear": (lambda: _near_collinear_dataset(0), 1e-6),
    "adversarial_compare": (
        lambda: read_dataset(str(pathlib.Path(__file__).parent / "data"
                                 / "adversarial_compare.csv"))[1],
        0.05),
}


@pytest.mark.parametrize("case", sorted(CARRIED_CASES))
class TestCarriedCorrelations:
    """score_all reads X'r/n from the state, carried by ortho_extend's
    rank-one updates instead of recomputed from the residual."""

    def test_corr_tracks_residual(self, case):
        # every entry of X'r/n is at most the current residual's (1/n)-norm
        # (unit columns), so the tolerance is a few roundings at that
        # scale, which a direct float64 product meets too; both are held
        # to an extended-precision product. Carried from X'y/n alone, the
        # near-collinear fit after x0 + x1 drifted fifty times past
        # it. One column stays out, so X'r/n is never pure rounding noise.
        ds = CARRIED_CASES[case][0]()
        x = ds.x.astype(np.longdouble)
        state = initial_state(ds)
        extended = 0
        for j in np.random.default_rng(3).permutation(ds.p)[:-1]:
            try:
                state = ortho_extend(state, int(j), ds)
            except CollinearCandidate:
                continue
            extended += 1
            exact = x.T @ state.residual.astype(np.longdouble) / ds.n
            tol = 16 * np.finfo(float).eps * np.sqrt(state.residual_loss)
            for corr in (state.corr, ds.x.T @ state.residual / ds.n):
                np.testing.assert_allclose(corr, exact, rtol=0, atol=tol)
        assert extended >= ds.p - 2

    def test_greedy_steps_match_oracle(self, case):
        # every step takes the largest loss drop of two independent
        # extended-precision solves, and no drop left exceeds t
        ds, t = CARRIED_CASES[case][0](), CARRIED_CASES[case][1]
        fr = forward_regression(ds, t)
        assert fr.steps
        support: list[int] = []
        for step in fr.steps + (None,):
            gains = {j: -naive_delta_loss(ds, support, j)
                     for j in range(ds.p) if j not in support}
            top = max(gains.values())
            if step is None:
                assert top <= t * (1 + 1e-9)
                break
            assert gains[step.index] == pytest.approx(top, rel=1e-9)
            assert step.gain == pytest.approx(gains[step.index], rel=1e-9)
            support.append(step.index)
