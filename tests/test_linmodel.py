import math

import numpy as np
import pytest

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import candidate_set
from subsetci.inference import SigmaSpec, estimate_sigma
from subsetci.linmodel import adjusted_coefficients

from conftest import random_dataset
from pair_oracle import residual_project


def dense_projector(X_S):
    """Explicit residual-maker, the oracle the fast path must match."""
    n = X_S.shape[0]
    return np.eye(n) - X_S @ np.linalg.inv(X_S.T @ X_S) @ X_S.T


def normal_equations(X_S, v):
    return np.linalg.inv(X_S.T @ X_S) @ (X_S.T @ v)


def rss(d, S):
    """RSS of ``S`` from the batched candidate kernel."""
    cs = candidate_set(d)
    return float(cs.rss_all(d.y)[cs.index_of(S)])


class TestIndexSet:
    def test_sorted_unique_required(self):
        with pytest.raises(errors.IndexOutOfRange):
            IndexSet((2, 1))
        with pytest.raises(errors.IndexOutOfRange):
            IndexSet((1, 1, 2))
        with pytest.raises(errors.IndexOutOfRange):
            IndexSet((0, 1))

    def test_membership_helpers(self):
        s = IndexSet((1, 3))
        assert 3 in s and 2 not in s
        assert s.position_of(3) == 1
        with pytest.raises(errors.IndexNotInModel):
            s.position_of(2)


class TestDatasetValidation:
    def test_requires_more_rows_than_columns(self):
        with pytest.raises(errors.DimensionMismatch):
            Dataset(np.eye(3), np.ones(3), ("a", "b", "c"))

    def test_rejects_rank_deficient_design(self):
        X = np.ones((6, 2))
        with pytest.raises(errors.RankDeficient):
            Dataset(X, np.ones(6), ("a", "b"))

    def test_duplicate_names_rejected(self):
        X = np.random.default_rng(1).standard_normal((5, 2))
        with pytest.raises(errors.ParseError):
            Dataset(X, np.ones(5), ("a", "a"))

    def test_arrays_frozen(self, small_data):
        with pytest.raises(ValueError):
            small_data.X[0, 0] = 99.0


class TestFitSubmodel:
    """The least-squares fit of a submodel: its coefficients come from
    ``adjusted_coefficients`` of the response, its RSS from the candidate
    kernel and from ``estimate_sigma``."""

    def test_identity_design_interpolates(self):
        X = np.vstack([np.eye(2), np.zeros((1, 2))])
        d = Dataset(X, np.array([1.0, 2.0, 0.0]), ("a", "b"))
        S = IndexSet((1, 2))
        np.testing.assert_allclose(adjusted_coefficients(d, S, d.y), [1.0, 2.0],
                                   atol=1e-12)
        assert rss(d, S) == pytest.approx(0.0, abs=1e-20)

    def test_ones_column_fits_sample_mean(self):
        X = np.column_stack([np.ones(3), np.array([1.0, 2.0, 4.0])])
        d = Dataset(X, np.array([1.0, 2.0, 3.0]), ("ones", "b"))
        S = IndexSet((1,))
        assert adjusted_coefficients(d, S, d.y)[0] == pytest.approx(2.0, abs=1e-12)
        assert rss(d, S) == pytest.approx(2.0, abs=1e-12)

    def test_against_normal_equations_oracle(self, rng):
        d = random_dataset(rng, n=10, p=3)
        S = IndexSet((1, 2, 3))
        oracle = normal_equations(d.X, d.y)
        np.testing.assert_allclose(adjusted_coefficients(d, S, d.y), oracle,
                                   atol=1e-8)

    def test_rss_field_matches_residual_norm(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 3))
        resid = d.y - d.X[:, [0, 2]] @ adjusted_coefficients(d, S, d.y)
        assert rss(d, S) == pytest.approx(float(resid @ resid), rel=1e-12)

    def test_residuals_orthogonal_to_columns(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((2, 4))
        resid = d.y - d.X[:, [1, 3]] @ adjusted_coefficients(d, S, d.y)
        for i in S:
            col = d.X[:, i - 1]
            assert abs(col @ resid) <= 1e-9 * np.linalg.norm(col) * \
                max(1.0, np.linalg.norm(resid))

    def test_df_residual(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 2))
        assert d.df_residual(S) == 12 - 2 - 1
        assert estimate_sigma(d, S, SigmaSpec.mse_aic()) == pytest.approx(
            math.sqrt(rss(d, S) / (12 - 2 - 1)), rel=1e-12)

    def test_index_out_of_range(self, small_data):
        with pytest.raises(errors.IndexOutOfRange):
            adjusted_coefficients(small_data, IndexSet((1, 9)), small_data.y)
        with pytest.raises(errors.IndexOutOfRange):
            estimate_sigma(small_data, IndexSet((1, 9)), SigmaSpec.mse_aic())

    def test_rank_deficient_design_raises(self, rng):
        X = rng.standard_normal((10, 3))
        X[:, 2] = X[:, 0] * 2.0
        with pytest.raises(errors.RankDeficient):
            Dataset(X, rng.standard_normal(10), ("a", "b", "c"))

    def test_reproducible_bit_identical(self, rng):
        d = random_dataset(rng, n=10, p=3)
        S = IndexSet((1, 2))
        assert np.array_equal(adjusted_coefficients(d, S, d.y),
                              adjusted_coefficients(d, S, d.y))
        assert (estimate_sigma(d, S, SigmaSpec.mse_aic())
                == estimate_sigma(d, S, SigmaSpec.mse_aic()))


class TestRss:
    def test_saturated_square_design(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.standard_normal((4, 4)), rng.standard_normal((2, 4))])
        d = Dataset(X, X @ np.array([1.0, -2.0, 0.5, 3.0]), tuple("abcd"))
        assert rss(d, IndexSet((1, 2, 3, 4))) == pytest.approx(0.0, abs=1e-18)

    def test_orthogonal_response_keeps_full_norm(self):
        X = np.zeros((4, 2))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        y = np.array([0.0, 0.0, 2.0, 1.0])
        d = Dataset(X + 1e-9 * np.eye(4, 2), y, ("a", "b"))
        val = rss(d, IndexSet((1, 2)))
        assert val == pytest.approx(float(y @ y), rel=1e-6)

    def test_against_projector_oracle(self, rng):
        d = random_dataset(rng, n=14, p=5)
        S = IndexSet((1, 3, 5))
        P = dense_projector(d.X[:, [0, 2, 4]])
        oracle = float(d.y @ P @ d.y)
        assert rss(d, S) == pytest.approx(oracle, rel=1e-9)

    def test_matches_fit(self, rng):
        # the candidate kernel and estimate_sigma's thin QR agree
        d = random_dataset(rng, n=14, p=5)
        S = IndexSet((2, 4))
        sigma = estimate_sigma(d, S, SigmaSpec.mse_aic())
        assert rss(d, S) == pytest.approx(sigma ** 2 * d.df_residual(S),
                                          rel=1e-12)


class TestResidualProject:
    """The test oracle's residual maker, against dense algebra."""

    def test_annihilates_own_columns(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 4))
        for i in S:
            v = d.X[:, i - 1]
            out = residual_project(d, S, v)
            assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(v)

    def test_fixes_orthogonal_vectors(self, rng):
        d = random_dataset(rng, n=12, p=3)
        S = IndexSet((1, 2))
        v = rng.standard_normal(12)
        v = residual_project(d, S, v)  # now orthogonal to span
        out = residual_project(d, S, v)
        np.testing.assert_allclose(out, v, atol=1e-10 * np.linalg.norm(v))

    def test_against_dense_projector(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((2, 3))
        v = rng.standard_normal(12)
        oracle = dense_projector(d.X[:, [1, 2]]) @ v
        np.testing.assert_allclose(residual_project(d, S, v), oracle, atol=1e-10)

    def test_idempotent(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 2, 3))
        v = rng.standard_normal(12)
        once = residual_project(d, S, v)
        twice = residual_project(d, S, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_nesting_monotone(self, rng):
        for _ in range(10):
            d = random_dataset(rng, n=15, p=5)
            v = rng.standard_normal(15)
            small = IndexSet((1, 3))
            big = IndexSet((1, 2, 3, 5))
            assert (np.linalg.norm(residual_project(d, big, v))
                    <= np.linalg.norm(residual_project(d, small, v)) + 1e-12)

    def test_dimension_mismatch(self, small_data):
        with pytest.raises(errors.DimensionMismatch):
            residual_project(small_data, IndexSet((1,)), np.ones(3))

    def test_empty_model_is_identity(self, small_data):
        v = np.arange(small_data.n, dtype=float)
        np.testing.assert_array_equal(
            residual_project(small_data, IndexSet(()), v), v)


class TestAdjustedCoefficients:
    def test_exact_on_column_space(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 2, 4))
        b = np.array([0.5, -1.0, 2.0])
        mean = d.X[:, [0, 1, 3]] @ b
        np.testing.assert_allclose(adjusted_coefficients(d, S, mean), b,
                                   atol=1e-10)

    def test_invariant_under_overfitting(self, rng):
        # true support inside the bigger model: coefficients carry over, with
        # zeros on the extra columns
        d = random_dataset(rng, n=15, p=5)
        beta = np.array([1.0, 2.0, 0.0, 0.0, 0.0])
        mean = d.X @ beta
        S = IndexSet((1, 2, 4))
        adj = adjusted_coefficients(d, S, mean)
        np.testing.assert_allclose(adj, [1.0, 2.0, 0.0], atol=1e-10)

    def test_outside_span_matches_normal_equations(self, rng):
        d = random_dataset(rng, n=12, p=4)
        S = IndexSet((1, 3))
        mean = rng.standard_normal(12)
        oracle = normal_equations(d.X[:, [0, 2]], mean)
        np.testing.assert_allclose(adjusted_coefficients(d, S, mean), oracle,
                                   atol=1e-9)


def test_replace_y_shares_design_cache(rng):
    d = random_dataset(rng, n=10, p=3)
    d._qr_of((1, 2))
    d2 = d.replace_y(np.zeros(10))
    assert d2._cache is d._cache
    assert d2.y is not d.y


def test_forced_intercept_sizes(rng):
    X = np.column_stack([np.ones(10), rng.standard_normal((10, 2))])
    d = Dataset(X, rng.standard_normal(10), ("Intercept", "a", "b"),
                intercept_policy="forced_first_column")
    S = IndexSet((1, 2))
    assert d.free_size(S) == 1
    assert d.df_residual(S) == 10 - 1 - 1
