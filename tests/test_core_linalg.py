import numpy as np
import pytest

from fwdreg.core_linalg import (
    MOMENT_BLOCK,
    MOMENT_ROW_BLOCK_ENTRIES,
    Dataset,
    _residualize,
    column_moments,
    en_dot,
    gram,
    initial_state,
    least_squares_on_support,
    ortho_extend,
    standardize,
)
from fwdreg.errors import (
    CollinearCandidate,
    RankDeficientSupport,
    ZeroVarianceColumn,
)
from helpers import orthonormal_design, random_standardized_dataset


class TestStandardize:
    def test_two_point_symmetry(self):
        x = np.array([[1.0], [3.0]])
        mean, scale = standardize(x)
        np.testing.assert_allclose(x[:, 0], [-1.0, 1.0], atol=1e-12)
        assert (mean[0], scale[0]) == (2.0, 1.0)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        once = rng.standard_normal((30, 5)) * 4 + 2
        standardize(once)
        twice = once.copy()
        standardize(twice)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_zero_variance_column(self):
        raw = np.column_stack([np.full(3, 5.0), np.arange(3.0)])
        before = raw.copy()
        with pytest.raises(ZeroVarianceColumn) as exc:
            standardize(raw)
        assert exc.value.column == 0
        assert raw.tobytes() == before.tobytes()

    def test_postconditions(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8)) * 3 - 1
        standardize(x)
        assert np.max(np.abs(x.mean(axis=0))) < 1e-12
        assert np.max(np.abs((x * x).mean(axis=0) - 1.0)) < 1e-12

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_matches_out_of_place(self, order):
        """A CSV design split off around "y" is F-ordered, a table without
        "y" C-ordered; on both, the in-place result is bit-equal to
        (raw - mean) / scale."""
        rng = np.random.default_rng(2)
        raw = np.asarray(rng.standard_normal((37, 6)) * 5 + 3, order=order)
        x = raw.copy(order="K")
        mean, scale = standardize(x)
        ref_mean, ref_scale = column_moments(raw)
        assert mean.tobytes() == ref_mean.tobytes()
        assert scale.tobytes() == ref_scale.tobytes()
        assert x.flags[f"{order}_CONTIGUOUS"]
        assert x.tobytes(order="A") == ((raw - mean) / scale).tobytes(order="A")

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, p", [
        (2, 1), (2, 5), (37, 1), (37, 2), (37, MOMENT_BLOCK - 1), (37, MOMENT_BLOCK),
        (37, MOMENT_BLOCK + 1),  # would end on a one-column block
        (37, 2 * MOMENT_BLOCK + 1), (37, 2 * MOMENT_BLOCK + 2), (300, 3 * MOMENT_BLOCK + 7),
        # several blocks of rows in C order, the last of one row
        (2000, MOMENT_BLOCK + 1), (MOMENT_ROW_BLOCK_ENTRIES // 32 + 1, 64),
    ])
    def test_blocked_moments_match_two_pass_reference(self, order, n, p):
        """The blocked second moment is bit-equal to centring the whole
        design at once, whatever the block split and memory order."""
        rng = np.random.default_rng(n * 1000 + p)
        raw = np.asarray(rng.standard_normal((n, p)) * 7 + 40, order=order)
        before = raw.copy(order="K")
        mean, scale = column_moments(raw)
        assert raw.tobytes(order="A") == before.tobytes(order="A")
        assert mean.tobytes() == raw.mean(axis=0).tobytes()
        ref_scale = np.sqrt(((raw - mean) ** 2).mean(axis=0))
        assert scale.tobytes() == ref_scale.tobytes()
        x = raw.copy(order="K")
        assert [m.tobytes() for m in standardize(x)] == [mean.tobytes(), scale.tobytes()]
        assert x.tobytes(order="A") == ((raw - mean) / scale).tobytes(order="A")

    @pytest.mark.parametrize(
        "raw", [[[1.0, 2.0], [3.0, 5.0]], np.array([[1, 2], [3, 5]])], ids=["list", "int"]
    )
    def test_rejects_what_it_cannot_update(self, raw):
        with pytest.raises(TypeError, match="in place on a float64 array"):
            standardize(raw)


class TestGram:
    def test_orthonormal_design_gives_identity(self):
        rng = np.random.default_rng(2)
        x = orthonormal_design(rng, 20, 6)
        np.testing.assert_allclose(gram(x), np.eye(6), atol=1e-12)

    def test_identical_columns(self):
        x = np.array([[-1.0, -1.0], [1.0, 1.0]])
        np.testing.assert_allclose(gram(x), np.ones((2, 2)), atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4))
        standardize(x)
        ref = sum(np.outer(x[i], x[i]) for i in range(10)) / 10
        np.testing.assert_allclose(gram(x), ref, atol=1e-12)

    def test_unit_diagonal_on_standardized(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 7))
        standardize(x)
        np.testing.assert_allclose(np.diag(gram(x)), np.ones(7), atol=1e-10)

    @pytest.mark.parametrize("layout", ["C", "F", "leading_rows", "row_strided",
                                        "column_strided"])
    def test_exactly_symmetric_without_averaging(self, layout):
        # X'X comes out exactly symmetric on every layout a caller passes,
        # so it equals the averaged (G + G')/2 bit for bit
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((301, 45))
        x = {"C": raw, "F": np.asfortranarray(raw), "leading_rows": raw[:200],
             "row_strided": raw[::2], "column_strided": raw[:, ::2]}[layout]
        g = gram(x)
        np.testing.assert_array_equal(g, g.T)
        averaged = x.T @ x / x.shape[0]
        np.testing.assert_array_equal(g, (averaged + averaged.T) / 2.0)


class TestLeastSquares:
    def test_empty_support(self):
        rng = np.random.default_rng(5)
        ds = random_standardized_dataset(rng, 30, 5)
        theta, loss = least_squares_on_support(ds, [])
        assert np.all(theta == 0)
        assert loss == pytest.approx(en_dot(ds.y, ds.y))

    def test_noiseless_single_covariate(self):
        rng = np.random.default_rng(6)
        x = orthonormal_design(rng, 20, 3)
        ds = Dataset(x=x, y=2.0 * x[:, 0])
        theta, loss = least_squares_on_support(ds, [0])
        assert theta[0] == pytest.approx(2.0, abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations(self):
        # independent oracle: explicit inverse of the normal equations
        rng = np.random.default_rng(7)
        ds = random_standardized_dataset(rng, 50, 8)
        idx = [2, 5]
        theta, loss = least_squares_on_support(ds, idx)
        xs = ds.x[:, idx]
        coef = np.linalg.inv(xs.T @ xs) @ (xs.T @ ds.y)
        np.testing.assert_allclose(theta[idx], coef, atol=1e-10)
        resid = ds.y - xs @ coef
        assert loss == pytest.approx(en_dot(resid, resid), rel=1e-10)

    def test_rank_deficient(self):
        x = np.column_stack([np.array([-1.0, 0.0, 1.0])] * 2)
        ds = Dataset(x=x, y=np.arange(3.0))
        with pytest.raises(RankDeficientSupport):
            least_squares_on_support(ds, [0, 1])


class TestOrthoExtend:
    def test_first_step_gain(self):
        rng = np.random.default_rng(8)
        x = orthonormal_design(rng, 30, 4)
        y = x @ np.array([1.5, 0.0, -0.7, 0.0]) + 0.1 * rng.standard_normal(30)
        ds = Dataset(x=x, y=y)
        state = initial_state(ds)
        new = ortho_extend(state, 0, ds)
        drop = state.residual_loss - new.residual_loss
        assert drop == pytest.approx(en_dot(x[:, 0], y) ** 2, rel=1e-10)

    def test_collinear_candidate(self):
        x = np.column_stack([np.array([-1.0, 0.0, 1.0])] * 2)
        ds = Dataset(x=x, y=np.arange(3.0))
        state = ortho_extend(initial_state(ds), 0, ds)
        with pytest.raises(CollinearCandidate):
            ortho_extend(state, 1, ds)

    def test_matches_full_refit(self):
        rng = np.random.default_rng(9)
        ds = random_standardized_dataset(rng, 40, 10)
        state = initial_state(ds)
        for j in [3, 7, 1]:
            state = ortho_extend(state, j, ds)
            _, loss = least_squares_on_support(ds, state.support)
            assert state.residual_loss == pytest.approx(loss, rel=1e-10)

    def test_state_invariants(self):
        rng = np.random.default_rng(10)
        ds = random_standardized_dataset(rng, 60, 12)
        state = initial_state(ds)
        for j in [0, 4, 9, 2]:
            state = ortho_extend(state, j, ds)
        n = ds.n
        btb = state.basis.T @ state.basis / n
        np.testing.assert_allclose(btb, np.eye(len(state.support)), atol=1e-10)
        np.testing.assert_allclose(
            state.basis.T @ state.residual / n, 0.0, atol=1e-10
        )
        for j in set(range(ds.p)) - set(state.support):
            c = _residualize(state.basis, ds.x[:, j])
            assert state.col_norm2[j] == pytest.approx(en_dot(c, c), rel=0, abs=1e-10)


def test_loss_monotone_under_extension():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = random_standardized_dataset(rng, 40, 8)
        state = initial_state(ds)
        order = rng.permutation(8)[:5]
        for j in order:
            new = ortho_extend(state, int(j), ds)
            assert new.residual_loss <= state.residual_loss + 1e-12
            state = new


def test_incremental_batch_equivalence():
    """Any sequence of extensions matches a direct least-squares refit."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(20, 101))
        p = int(rng.integers(4, 31))
        ds = random_standardized_dataset(rng, n, p)
        k = int(rng.integers(1, min(n // 2, p) + 1))
        order = rng.permutation(p)[:k]
        state = initial_state(ds)
        for j in order:
            state = ortho_extend(state, int(j), ds)
        _, loss = least_squares_on_support(ds, state.support)
        assert state.residual_loss == pytest.approx(loss, rel=1e-9, abs=1e-12)
