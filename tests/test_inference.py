import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm, t as t_dist

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import Criterion, CriterionSpec, best_subset
from subsetci.geometry import (
    MIN_ETA_EXP, SelectionEvent, decompose, measure, selection_events)
from subsetci.harness import load_csv_dataset
from subsetci.inference import (
    InferenceTarget,
    METHOD_CLASSICAL_KNOWN,
    METHOD_CLASSICAL_T,
    METHOD_CORRECTED,
    SigmaSpec,
    classical_ci,
    corrected_ci,
    estimate_sigma,
    eta_for_target,
    interval_cells,
    interval_table,
    pivot_value,
    solve_intervals,
    target_directions,
)
from subsetci.intervals import FULL_LINE, interval_union, padded_rows
from subsetci.truncnorm import PieceTable, TruncatedNormalSpec, invert_mean, truncated_cdf

import test_geometry
from conftest import random_dataset
from pair_oracle import residual_project, sequential_region


def lstsq_fit(d, S):
    """(coefficients, rss) of ``S`` by ``np.linalg.lstsq``, sharing no code
    with the library."""
    Xs = d.X[:, [i - 1 for i in S.indices]]
    coef = np.linalg.lstsq(Xs, d.y, rcond=None)[0]
    resid = d.y - Xs @ coef
    return coef, float(resid @ resid)


class TestEtaForTarget:
    def test_orthonormal_coefficient_direction(self, rng):
        n = 12
        Q = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        d = Dataset(Q, rng.standard_normal(n), ("a", "b", "c"))
        S = IndexSet((1, 2, 3))
        eta = eta_for_target(d, S, InferenceTarget.coefficient(2))
        np.testing.assert_allclose(eta, Q[:, 1], atol=1e-12)

    def test_prediction_estimate_matches_fit(self, rng):
        d = random_dataset(rng, n=14, p=4)
        S = IndexSet((1, 3, 4))
        x = rng.standard_normal(4)
        eta = eta_for_target(d, S, InferenceTarget.prediction_mean(x))
        coef, _ = lstsq_fit(d, S)
        expect = float(x[[0, 2, 3]] @ coef)
        assert float(eta @ d.y) == pytest.approx(expect, abs=1e-10)

    def test_coefficient_direction_picks_out_estimate(self, rng):
        d = random_dataset(rng, n=14, p=4)
        S = IndexSet((2, 3))
        eta = eta_for_target(d, S, InferenceTarget.coefficient(3))
        # defining property: eta'X_S = e_i'
        probe = eta @ d.X[:, [1, 2]]
        np.testing.assert_allclose(probe, [0.0, 1.0], atol=1e-9)

    def test_coefficient_by_name(self, rng):
        d = random_dataset(rng, n=14, p=3, names=("alpha", "beta", "gamma"))
        S = IndexSet((1, 2))
        by_name = eta_for_target(d, S, InferenceTarget.coefficient("beta"))
        by_index = eta_for_target(d, S, InferenceTarget.coefficient(2))
        np.testing.assert_array_equal(by_name, by_index)

    def test_linear_combo(self, rng):
        d = random_dataset(rng, n=14, p=3)
        S = IndexSet((1, 2))
        eta = eta_for_target(d, S, InferenceTarget.linear_combo([1.0, -1.0]))
        coef, _ = lstsq_fit(d, S)
        assert float(eta @ d.y) == pytest.approx(float(coef[0] - coef[1]),
                                                 abs=1e-10)

    def test_index_outside_model(self, rng):
        d = random_dataset(rng, n=14, p=3)
        with pytest.raises(errors.IndexNotInModel):
            eta_for_target(d, IndexSet((1, 2)), InferenceTarget.coefficient(3))

    def test_always_in_selected_span(self, rng):
        d = random_dataset(rng, n=14, p=4)
        S = IndexSet((1, 2, 4))
        for target in (InferenceTarget.coefficient(2),
                       InferenceTarget.prediction_mean(rng.standard_normal(4)),
                       InferenceTarget.linear_combo(rng.standard_normal(3))):
            eta = eta_for_target(d, S, target)
            assert np.linalg.norm(residual_project(d, S, eta)) <= \
                1e-9 * np.linalg.norm(eta)


class TestEstimateSigma:
    def test_known_passthrough(self, small_data):
        assert estimate_sigma(small_data, IndexSet((1,)),
                              SigmaSpec.known(1.0)) == 1.0
        assert estimate_sigma(small_data, IndexSet((1,)),
                              SigmaSpec.external(2.5)) == 2.5

    def test_hand_computed_mse(self):
        X = np.column_stack([np.ones(4)])
        y = np.array([1.0, 2.0, 3.0, 6.0])
        d = Dataset(np.column_stack([X, [0.0, 1.0, 0.0, 0.0]]), y,
                    ("ones", "dummy"))
        S = IndexSet((1,))
        # residuals about the mean 3: (-2,-1,0,3), rss=14, df=4-1-1=2
        assert estimate_sigma(d, S, SigmaSpec.mse_aic()) == pytest.approx(
            math.sqrt(14.0 / 2.0), rel=1e-12)

    def test_full_model_strategy_ignores_selection(self, rng):
        d = random_dataset(rng, n=15, p=3)
        v1 = estimate_sigma(d, IndexSet((1,)), SigmaSpec.mse_full())
        v2 = estimate_sigma(d, IndexSet((1, 2)), SigmaSpec.mse_full())
        assert v1 == v2
        _, rss = lstsq_fit(d, d.full_model())
        assert v1 == pytest.approx(math.sqrt(rss / (15 - 3 - 1)), rel=1e-12)

    def test_positive_sigma_required(self):
        with pytest.raises(errors.InputError):
            SigmaSpec.known(0.0)

    def test_parse(self):
        assert SigmaSpec.parse("known:1.5") == SigmaSpec.known(1.5)
        assert SigmaSpec.parse("mse-aic") == SigmaSpec.mse_aic()
        assert SigmaSpec.parse("MSE_FULL") == SigmaSpec.mse_full()
        assert SigmaSpec.parse("external:0.8") == SigmaSpec.external(0.8)
        with pytest.raises(errors.InputError):
            SigmaSpec.parse("bogus")


class TestClassicalCI:
    def test_textbook_formula_oracle(self, rng):
        d = random_dataset(rng, n=20, p=4)
        S = IndexSet((1, 2, 4))
        x = rng.standard_normal(4)
        target = InferenceTarget.prediction_mean(x)
        alpha = 0.05

        ci = classical_ci(d, S, target, alpha, SigmaSpec.mse_aic())
        # independent recomputation
        Xs = d.X[:, [0, 1, 3]]
        xs = x[[0, 1, 3]]
        beta_hat = np.linalg.inv(Xs.T @ Xs) @ Xs.T @ d.y
        point = float(xs @ beta_hat)
        resid = d.y - Xs @ beta_hat
        sig = math.sqrt(float(resid @ resid) / (20 - 3 - 1))
        half = (t_dist.ppf(0.975, 16) * sig
                * math.sqrt(float(xs @ np.linalg.inv(Xs.T @ Xs) @ xs)))
        assert ci.method == METHOD_CLASSICAL_T
        assert ci.point_estimate == pytest.approx(point, abs=1e-9)
        assert ci.lower == pytest.approx(point - half, abs=1e-8)
        assert ci.upper == pytest.approx(point + half, abs=1e-8)

    def test_known_sigma_uses_normal_quantile(self, rng):
        d = random_dataset(rng, n=20, p=3)
        S = IndexSet((1, 2))
        ci = classical_ci(d, S, InferenceTarget.coefficient(1), 0.10,
                          SigmaSpec.known(2.0))
        assert ci.method == METHOD_CLASSICAL_KNOWN
        eta = eta_for_target(d, S, InferenceTarget.coefficient(1))
        half = norm.ppf(0.95) * 2.0 * np.linalg.norm(eta)
        assert ci.upper - ci.lower == pytest.approx(2 * half, rel=1e-12)

    def test_alpha_to_one_collapses(self, rng):
        d = random_dataset(rng, n=20, p=3)
        S = IndexSet((1,))
        ci = classical_ci(d, S, InferenceTarget.coefficient(1), 1.0 - 1e-12,
                          SigmaSpec.known(1.0))
        assert ci.upper - ci.lower < 1e-10


class TestCorrectedCI:
    def test_single_candidate_reduces_to_classical(self, rng):
        # p = 1: only one candidate model, no comparisons, no truncation
        d = random_dataset(rng, n=15, p=1, signal=np.array([2.0]))
        spec = CriterionSpec(Criterion.AIC, 15)
        S = IndexSet((1,))
        target = InferenceTarget.coefficient(1)
        sig = SigmaSpec.known(1.0)
        cc = corrected_ci(d, None, S, target, 0.05, sig, spec)
        cl = classical_ci(d, S, target, 0.05, sig)
        assert cc.event_summary.region == FULL_LINE
        assert cc.lower == pytest.approx(cl.lower, abs=1e-8)
        assert cc.upper == pytest.approx(cl.upper, abs=1e-8)

    def test_equal_tail_consistency(self, rng):
        d = random_dataset(rng, n=16, p=4)
        spec = CriterionSpec(Criterion.AIC, 16)
        S_hat, _ = best_subset(d, spec)
        target = InferenceTarget.coefficient(S_hat.indices[0])
        sig = SigmaSpec.known(1.0)
        alpha = 0.05
        ci = corrected_ci(d, None, S_hat, target, alpha, sig, spec)
        eta = eta_for_target(d, S_hat, target)
        lam = math.sqrt(float(eta @ eta))
        region = ci.event_summary.region
        x = ci.point_estimate
        assert truncated_cdf(x, TruncatedNormalSpec(ci.lower, lam, region)) == \
            pytest.approx(1 - alpha / 2, abs=1e-6)
        assert truncated_cdf(x, TruncatedNormalSpec(ci.upper, lam, region)) == \
            pytest.approx(alpha / 2, abs=1e-6)
        assert ci.lower < x < ci.upper

    def test_skip_supersets_invariance_end_to_end(self, rng):
        for _ in range(8):
            d = random_dataset(rng, n=15, p=4,
                               signal=np.array([2.0, 1.0, 0.0, 0.0]))
            spec = CriterionSpec(Criterion.AIC, 15)
            S_hat, _ = best_subset(d, spec)
            target = InferenceTarget.coefficient(S_hat.indices[0])
            sig = SigmaSpec.known(1.0)
            # the oracle's region keeps the superset comparisons the
            # library skips
            dec = decompose(d.y, eta_for_target(d, S_hat, target))
            reference = SelectionEvent(S_hat, sequential_region(
                dec, d, S_hat, spec, skip_supersets=False), ())
            on = corrected_ci(d, None, S_hat, target, 0.05, sig, spec)
            off = corrected_ci(d, None, S_hat, target, 0.05, sig, spec,
                               event=reference)
            assert on.lower == pytest.approx(off.lower, abs=1e-8)
            assert on.upper == pytest.approx(off.upper, abs=1e-8)
            p_on = pivot_value(d, None, S_hat, target, 0.0, sig, spec)
            p_off = pivot_value(d, None, S_hat, target, 0.0, sig, spec,
                                event=reference)
            assert p_on == pytest.approx(p_off, abs=1e-10)

    @staticmethod
    def _supplied_event_problem(rng):
        d = random_dataset(rng, n=16, p=3, signal=np.array([3.0, 2.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 16)
        S_hat, scored = best_subset(d, spec)
        target = InferenceTarget.coefficient(S_hat.indices[0])
        x = float(eta_for_target(d, S_hat, target) @ d.y)
        return d, spec, S_hat, scored, target, x, SigmaSpec.known(1.0)

    def test_event_of_another_model_is_refused(self, rng):
        # its region holds the observation, but it is not S_hat's event
        d, spec, S_hat, scored, target, x, sig = self._supplied_event_problem(rng)
        other = next(s.model for s in scored if s.model != S_hat)
        foreign = SelectionEvent(other, FULL_LINE, ())
        with pytest.raises(errors.NotSelectedModel, match=f"not of {S_hat}"):
            corrected_ci(d, None, S_hat, target, 0.05, sig, spec, event=foreign)
        with pytest.raises(errors.NotSelectedModel, match=f"not of {S_hat}"):
            pivot_value(d, None, S_hat, target, 0.0, sig, spec, event=foreign)

    def test_event_of_another_direction_is_refused(self):
        # coefficient 1's event of the same model holds coefficient 2's
        # observation too, but its region was cut along another direction
        d = random_dataset(np.random.default_rng(0), n=20, p=4,
                           signal=np.array([1.0, 1.0, 0.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 20)
        S_hat, _ = best_subset(d, spec)
        assert S_hat == IndexSet((1, 2))
        targets = [InferenceTarget.coefficient(1), InferenceTarget.coefficient(2)]
        first, second = selection_events(
            d, d.y, target_directions(d, S_hat, targets), S_hat, spec)
        sig = SigmaSpec.known(1.0)
        own = corrected_ci(d, None, S_hat, targets[1], 0.05, sig, spec,
                           event=second)
        fresh = corrected_ci(d, None, S_hat, targets[1], 0.05, sig, spec)
        assert (own.lower, own.upper) == pytest.approx(
            (fresh.lower, fresh.upper), rel=1e-12)
        assert (own.lower, own.upper) == pytest.approx((0.43230, 1.43362),
                                                       abs=1e-5)
        assert first.region.contains(own.point_estimate)
        with pytest.raises(errors.InputError, match="cut along another direction"):
            corrected_ci(d, None, S_hat, targets[1], 0.05, sig, spec, event=first)
        with pytest.raises(errors.InputError, match="cut along another direction"):
            pivot_value(d, None, S_hat, targets[1], 0.0, sig, spec, event=first)

    def test_event_of_another_response_is_refused(self):
        # coefficient 2's own event, but cut through the unperturbed
        # response: with a perturbed one, its interval would be computed
        # silently, (0.537060, 1.519273), from a region of another response
        d = random_dataset(np.random.default_rng(0), n=20, p=4,
                           signal=np.array([1.0, 1.0, 0.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 20)
        S_hat, _ = best_subset(d, spec)
        target = InferenceTarget.coefficient(2)
        _, own = selection_events(
            d, d.y, target_directions(d, S_hat, [InferenceTarget.coefficient(1),
                                                 target]), S_hat, spec)
        assert np.array_equal(own.z, decompose(d.y, own.eta).z)
        y = d.y + 0.3 * np.random.default_rng(5).standard_normal(20)
        sig = SigmaSpec.known(1.0)
        with pytest.raises(errors.InputError, match="another response"):
            corrected_ci(d, y, S_hat, target, 0.05, sig, spec, event=own)
        with pytest.raises(errors.InputError, match="another response"):
            pivot_value(d, y, S_hat, target, 0.0, sig, spec, event=own)

    def test_observation_outside_supplied_event_is_refused(self, rng):
        # S_hat's event whose region has a gap at the observation
        d, spec, S_hat, _, target, x, sig = self._supplied_event_problem(rng)
        gap = SelectionEvent(S_hat, interval_union(
            [(x - 3.0, x - 1.0), (x + 1.0, x + 3.0)]), ())
        with pytest.raises(errors.ObservationOutsideRegion) as cor:
            corrected_ci(d, None, S_hat, target, 0.05, sig, spec, event=gap)
        with pytest.raises(errors.ObservationOutsideRegion) as piv:
            pivot_value(d, None, S_hat, target, 0.0, sig, spec, event=gap)
        assert str(piv.value) == str(cor.value)

    def test_monotone_width_under_nested_regions(self):
        # same observation and scale; smaller region never gives a shorter CI
        inner = interval_union([(-1.0, 1.0)])
        outer = interval_union([(-3.0, 3.0)])
        x, lam, alpha = 0.2, 1.0, 0.05
        lo_in = invert_mean(1 - alpha / 2, x, lam, inner)
        hi_in = invert_mean(alpha / 2, x, lam, inner)
        lo_out = invert_mean(1 - alpha / 2, x, lam, outer)
        hi_out = invert_mean(alpha / 2, x, lam, outer)
        assert (hi_in - lo_in) >= (hi_out - lo_out) - 1e-9

    def test_sigma_used_recorded(self, rng):
        d = random_dataset(rng, n=16, p=3)
        spec = CriterionSpec(Criterion.AIC, 16)
        S_hat, _ = best_subset(d, spec)
        target = InferenceTarget.coefficient(S_hat.indices[0])
        ci = corrected_ci(d, None, S_hat, target, 0.05, SigmaSpec.mse_full(), spec)
        assert ci.sigma_used == pytest.approx(
            estimate_sigma(d, S_hat, SigmaSpec.mse_full()))
        assert ci.method == METHOD_CORRECTED

    def test_explicit_y_argument(self, rng):
        d = random_dataset(rng, n=16, p=3)
        spec = CriterionSpec(Criterion.AIC, 16)
        y2 = d.y + 0.0
        S_hat, _ = best_subset(d, spec)
        target = InferenceTarget.coefficient(S_hat.indices[0])
        sig = SigmaSpec.known(1.0)
        a = corrected_ci(d, None, S_hat, target, 0.05, sig, spec)
        b = corrected_ci(d, y2, S_hat, target, 0.05, sig, spec)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)


class TestPivotValue:
    def test_pivot_at_interval_endpoints(self, rng):
        d = random_dataset(rng, n=16, p=4)
        spec = CriterionSpec(Criterion.AIC, 16)
        S_hat, _ = best_subset(d, spec)
        target = InferenceTarget.coefficient(S_hat.indices[0])
        sig = SigmaSpec.known(1.0)
        alpha = 0.05
        ci = corrected_ci(d, None, S_hat, target, alpha, sig, spec)
        at_l = pivot_value(d, None, S_hat, target, ci.lower, sig, spec)
        at_u = pivot_value(d, None, S_hat, target, ci.upper, sig, spec)
        assert at_l == pytest.approx(1 - alpha / 2, abs=1e-6)
        assert at_u == pytest.approx(alpha / 2, abs=1e-6)

    def test_uniformity_small_monte_carlo(self):
        # pivots evaluated at the model-dependent target value should look
        # uniform across replications, whatever model gets selected
        from subsetci.linmodel import adjusted_coefficients

        rng = np.random.default_rng(999)
        n, p = 15, 3
        X = rng.standard_normal((n, p))
        beta = np.array([1.0, 0.5, 0.0])
        mean_vec = X @ beta
        base = Dataset(X, np.zeros(n), ("a", "b", "c"))
        spec = CriterionSpec(Criterion.AIC, n)
        sig = SigmaSpec.known(1.0)
        x_new = rng.standard_normal(p)
        target = InferenceTarget.prediction_mean(x_new)
        pivots = []
        for _ in range(300):
            y = mean_vec + rng.standard_normal(n)
            d = base.replace_y(y)
            S_hat, _ = best_subset(d, spec)
            # conditional target: the coefficient the selected model estimates
            adj = adjusted_coefficients(d, S_hat, mean_vec)
            true_val = float(x_new[[i - 1 for i in S_hat.indices]] @ adj)
            pivots.append(pivot_value(d, None, S_hat, target, true_val, sig, spec))
        u = np.sort(pivots)
        grid = np.arange(1, len(u) + 1) / len(u)
        ks = max(np.max(np.abs(u - grid)), np.max(np.abs(u - grid + 1 / len(u))))
        assert ks < 0.1


class TestDirectionScale:
    """A target scaled by ``2**k`` has its direction scaled by ``2**k``: its
    event and limits scale with it and its pivot does not change, exactly,
    also where ``|eta|^2`` overflows (k = 530) or underflows (k = -600)."""

    X0 = np.array([1.0, 0.5, -1.0, 2.0])

    @staticmethod
    def _target(k):
        return InferenceTarget.prediction_mean(np.ldexp(TestDirectionScale.X0, k))

    @pytest.mark.parametrize("sigma", [SigmaSpec.known(1.0), SigmaSpec.mse_full()],
                             ids=["known", "mse_full"])
    @pytest.mark.parametrize("k", [-600, -40, 530])
    def test_limits_and_pivot_scale_exactly(self, k, sigma):
        d, spec, S_hat = test_geometry.TestSelectionEvent._aic_problem()

        def limits(k):
            target = self._target(k)
            cor = corrected_ci(d, None, S_hat, target, 0.05, sigma, spec)
            cla = classical_ci(d, S_hat, target, 0.05, sigma)
            pivot = pivot_value(d, None, S_hat, target, math.ldexp(0.5, k),
                                sigma, spec)
            return (cor.lower, cor.upper, cor.point_estimate, cla.lower,
                    cla.upper), pivot

        base, base_pivot = limits(0)
        assert all(map(math.isfinite, base)) and 0.0 < base_pivot < 1.0
        got, pivot = limits(k)
        assert got == tuple(math.ldexp(v, k) for v in base)
        assert pivot == base_pivot

    @pytest.mark.parametrize("k", [-1060, -1000, 1000, 1022, 1023])
    def test_direction_scales_exactly_to_the_ends_of_the_float_range(self, k):
        # the weights are solved scaled into [1/2, 1): solved as given, the
        # point 2**1022 (1, 1, 0, 0, 0) on the bundled data overflowed in the
        # solve into an all-NaN direction, refused as non-finite.  A direction
        # too small to measure is still refused as too small
        import importlib.resources as ir

        d = load_csv_dataset(str(ir.files("subsetci") / "data" / "us_consumption.csv"),
                             "Consumption", intercept=True)
        S_hat = d.full_model()
        x0 = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        base = eta_for_target(d, S_hat, InferenceTarget.prediction_mean(x0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = eta_for_target(d, S_hat,
                                 InferenceTarget.prediction_mean(np.ldexp(x0, k)))
        assert np.array_equal(eta, np.ldexp(base, k))
        if k < MIN_ETA_EXP:
            with pytest.raises(errors.InputError, match="eta is too small"):
                measure(d.y, eta[None, :])
        else:
            got, want = measure(d.y, eta[None, :]), measure(d.y, base[None, :])
            assert all(np.array_equal(g, np.ldexp(w, k)) for g, w in zip(got, want))

    def test_event_cut_along_a_multiple_is_refused_where_the_norm_overflows(self):
        # |eta|^2 passes the largest float at this scale, and the check once
        # compared two infinite norms and let an event cut along 2 eta through
        d, spec, S_hat = test_geometry.TestSelectionEvent._aic_problem()
        target = self._target(530)
        eta = eta_for_target(d, S_hat, target)
        (event,) = selection_events(d, d.y, 2.0 * eta[None, :], S_hat, spec)
        sig = SigmaSpec.known(1.0)
        with pytest.raises(errors.InputError,
                           match="event was cut along another direction"):
            corrected_ci(d, None, S_hat, target, 0.05, sig, spec, event=event)
        with pytest.raises(errors.InputError,
                           match="event was cut along another direction"):
            pivot_value(d, None, S_hat, target, 0.0, sig, spec, event=event)

    @pytest.mark.parametrize("x, error, message", [
        ((1e308,) * 4, errors.InputError, "eta'y overflows"),
        ((0.0,) * 4, errors.ZeroEta, "eta must be nonzero")],
        ids=["overflowing", "zero"])
    def test_unmeasurable_direction_is_refused_by_every_interval(self, x, error,
                                                                message):
        # classical_ci once measured without refusing: the overflowing
        # eta'y gave ObservationOutsideRegion ("x=inf") after a
        # RuntimeWarning, and the zero direction the interval [0.0, 0.0]
        d, spec, S_hat = test_geometry.TestSelectionEvent._aic_problem()
        target = InferenceTarget.prediction_mean(x)
        sig = SigmaSpec.known(1.0)
        calls = (lambda: classical_ci(d, S_hat, target, 0.05, sig),
                 lambda: corrected_ci(d, None, S_hat, target, 0.05, sig, spec),
                 lambda: pivot_value(d, None, S_hat, target, 0.0, sig, spec))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=message) as caught:
                    call()
            assert type(caught.value) is error


class TestMeasurementCount:
    """Each single-target interval measures its direction at most twice:
    once in its selection event's cut and once for its interval; with a
    supplied event, once for both the event's check and the interval; and
    ``classical_ci`` once."""

    @pytest.mark.parametrize("sigma", [SigmaSpec.known(1.0), SigmaSpec.mse_aic()],
                             ids=["known", "mse_aic"])
    def test_single_target_calls(self, measurements, sigma):
        d, spec, S_hat = test_geometry.TestSelectionEvent._aic_problem()
        target = InferenceTarget.prediction_mean(TestDirectionScale.X0)

        def calls(run):
            measurements.clear()
            run()
            return len(measurements)

        assert calls(lambda: classical_ci(d, S_hat, target, 0.05, sigma)) == 1
        event = corrected_ci(d, None, S_hat, target, 0.05, sigma,
                             spec).event_summary

        def single(supplied):
            return (calls(lambda: corrected_ci(d, None, S_hat, target, 0.05, sigma,
                                               spec, event=supplied)),
                    calls(lambda: pivot_value(d, None, S_hat, target, 0.5, sigma,
                                              spec, event=supplied)))

        assert max(single(None)) <= 2
        assert single(event) == (1, 1)


@st.composite
def table_problems(draw):
    """(data, S, etas, regions, strategies, alpha, mu) for ``interval_table``:
    1-4 random directions of a random response, each with a region of 1-4
    pieces around its observation, some of them up to 30 noise scales apart,
    and means a few scales from each observation.  A strategy with sigma
    1e-300 pins the CDF, so that some limits fail."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = random_dataset(rng, n=12, p=3)
    etas = rng.standard_normal((int(rng.integers(1, 5)), 12))
    etas *= rng.uniform(0.05, 1.0, (etas.shape[0], 1))
    regions = []
    for x, scale in zip(etas @ data.y, np.linalg.norm(etas, axis=1)):
        lo, hi = x - scale * rng.uniform(0.02, 3), x + scale * rng.uniform(0.02, 3)
        pieces = [(lo, hi)]
        for _ in range(int(rng.integers(0, 4))):
            gap = scale * (rng.uniform(0.05, 3) if rng.random() < 0.5
                           else rng.uniform(8, 30))
            width = scale * rng.uniform(0.05, 3)
            if rng.random() < 0.5:
                pieces.append((hi + gap, hi + gap + width))
                hi += gap + width
            else:
                pieces.append((lo - gap - width, lo - gap))
                lo -= gap + width
        regions.append(interval_union(pieces))
    pool = [SigmaSpec.known(1.0), SigmaSpec.external(1.3), SigmaSpec.mse_aic(),
            SigmaSpec.mse_full()]
    strategies = [pool[i] for i in rng.permutation(4)[:int(rng.integers(1, 5))]]
    if rng.random() < 0.3:
        strategies.append(SigmaSpec.external(1e-300))
    mu = etas @ data.y + np.linalg.norm(etas, axis=1) * rng.uniform(-3, 3, etas.shape[0])
    alpha = float(rng.choice([0.05, 0.2]))
    return data, IndexSet((1, 2, 3)), etas, regions, strategies, alpha, mu


@pytest.fixture
def built_tables(monkeypatch):
    """Every ``PieceTable`` built while the test runs, in order."""
    built = []
    init = PieceTable.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PieceTable, "__init__", counted_init)
    return built


class TestIntervalTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(table_problems())
    def test_cells_equal_scalar_calls(self, problem):
        """Every limit is bit-for-bit the scalar ``invert_mean``, or infinite
        exactly where that call raises; every pivot is bit-for-bit the scalar
        ``truncated_cdf``, and ``interval_table`` raises where a scalar call
        does."""
        data, S, etas, regions, strategies, alpha, mu = problem
        rows = padded_rows(regions)
        measured = measure(data.y, etas)
        cells = interval_cells(data, S, *measured, rows, strategies, alpha)
        # the limits do not depend on the pivot means, and every region has
        # mass at its own observation: check every problem's limits there
        (table,) = solve_intervals([cells], [cells.points])
        scalar_pivots = np.empty(table.lam.shape)
        underflow = False
        for i, region in enumerate(regions):
            x = float(table.points[i])
            for j in range(len(strategies)):
                lam = float(table.lam[i, j])
                for limit, target in ((table.lower[i, j], 1 - alpha / 2),
                                      (table.upper[i, j], alpha / 2)):
                    if np.isfinite(limit):
                        assert limit == invert_mean(target, x, lam, region)
                        continue
                    assert limit == (-math.inf if target > 0.5 else math.inf)
                    with pytest.raises((errors.BracketFailure,
                                        errors.RegionMassUnderflow)):
                        invert_mean(target, x, lam, region)
                try:
                    scalar_pivots[i, j] = truncated_cdf(
                        x, TruncatedNormalSpec(float(mu[i]), lam, region))
                except errors.RegionMassUnderflow:
                    underflow = True
        if underflow:
            with pytest.raises(errors.RegionMassUnderflow):
                interval_table(data, S, *measured, rows, strategies, alpha, mu)
        else:
            at_mu = interval_table(data, S, *measured, rows, strategies, alpha, mu)
            assert np.array_equal(at_mu.lower, table.lower)
            assert np.array_equal(at_mu.upper, table.upper)
            # a numerator piece ~1e300 scales out has no mass, not NaN mass
            assert not np.isnan(at_mu.pivots).any()
            assert np.array_equal(at_mu.pivots, scalar_pivots)

    def test_one_piece_table_per_call(self, built_tables, rng):
        d = random_dataset(rng, n=16, p=4)
        spec = CriterionSpec(Criterion.AIC, 16)
        S_hat, _ = best_subset(d, spec)
        targets = [InferenceTarget.coefficient(i) for i in S_hat.indices]
        targets.append(InferenceTarget.prediction_mean(rng.standard_normal(4)))
        etas = target_directions(d, S_hat, targets)
        events = selection_events(d, d.y, etas, S_hat, spec)
        strategies = [SigmaSpec.known(1.0), SigmaSpec.mse_aic(), SigmaSpec.mse_full()]
        table = interval_table(d, S_hat, *measure(d.y, etas),
                               padded_rows([e.region for e in events]),
                               strategies, 0.05, np.zeros(len(targets)))
        assert table.pivots.shape == (len(targets), 3)
        assert len(built_tables) == 1
        # a response with no applicable target still builds one, empty, table
        empty = interval_table(d, S_hat, *measure(d.y, etas[:0]), padded_rows([]),
                               strategies, 0.05, np.zeros(0))
        assert empty.lower.shape == empty.pivots.shape == (0, 3)
        assert len(built_tables) == 2


class TestObservationCheck:
    """``interval_cells`` checks every observation against its region's
    padded row in one comparison."""

    STRATEGIES = [SigmaSpec.known(1.0), SigmaSpec.mse_aic()]

    def _cells(self, data, etas, regions):
        return self._cells_at(data, *measure(data.y, etas), regions)

    def _cells_at(self, data, points, lengths, regions):
        return interval_cells(data, IndexSet((1, 2, 3)), points, lengths,
                              padded_rows(regions), self.STRATEGIES, 0.05)

    def test_observation_outside_every_piece_is_refused(self, rng):
        data = random_dataset(rng, n=12, p=3)
        etas = rng.standard_normal((2, 12))
        x = etas @ data.y
        inside = interval_union([(x[0] - 1.0, x[0] + 1.0)])
        for outside in (interval_union([(x[1], x[1] + 1.0)]),  # on an end
                        interval_union([(x[1] - 1.0, x[1])]),
                        interval_union([(x[1] - 3.0, x[1] - 1.0),  # in a gap
                                        (x[1] + 1.0, x[1] + 3.0)])):
            with pytest.raises(errors.ObservationOutsideRegion, match=f"x={x[1]}"):
                self._cells(data, etas, [inside, outside])
        points, lengths = measure(data.y, etas)
        points[1] = math.nan
        with pytest.raises(errors.ObservationOutsideRegion, match="x=nan"):
            self._cells_at(data, points, lengths, [inside, FULL_LINE])
        # a NaN direction is refused before it has an observation
        nan_eta = etas.copy()
        nan_eta[1, 0] = math.nan
        with pytest.raises(errors.InputError, match="non-finite"):
            measure(data.y, nan_eta)
        # inside the later piece of a two-piece region, beside a one-piece one
        later = interval_union([(x[1] - 5.0, x[1] - 3.0), (x[1] - 1.0, x[1] + 1.0)])
        cells = self._cells(data, etas, [inside, later])
        assert cells.lo.shape == (2, 2)

    def test_mixed_widths_in_one_block_solve_as_alone(self, built_tables, rng):
        # responses whose regions have 1 to 4 pieces share one table, which
        # stores each cell's real pieces and its clipped piece, no padding;
        # every limit and pivot is bit for bit its own solve's, and a
        # response whose mean leaves its regions no mass fails alone
        cells, mus = [], []
        for pieces in (1, 4, 2, 2):
            data = random_dataset(rng, n=12, p=3)
            etas = rng.standard_normal((2, 12))
            regions = []
            for x in etas @ data.y:
                ends = x + np.cumsum(rng.uniform(0.3, 2.0, 2 * pieces))
                ends -= ends[2 * int(rng.integers(pieces)):][:2].mean() - x
                regions.append(interval_union(zip(ends[0::2], ends[1::2])))
            assert [len(r) for r in regions] == [pieces] * 2
            cells.append(self._cells(data, etas, regions))
            mus.append(etas @ data.y + rng.uniform(-2.0, 2.0, 2))
        mus[3] = np.full(2, 1e300)
        together = solve_intervals(cells, mus)
        assert len(built_tables) == 1
        stored, counts = [], []
        for c in cells:
            for x, lo, hi in zip(c.points, c.lo, c.hi):
                pieces = [(a, b) for a, b in zip(lo, hi) if a < b]
                holder = next(a for a, b in pieces if a < x < b)
                stored += (pieces + [(holder, x)]) * c.lam.shape[1]
                counts += [len(pieces) + 1] * c.lam.shape[1]
        table = built_tables[0]
        assert list(zip(table.lo.tolist(), table.hi.tolist())) == stored
        assert table.count.tolist() == counts
        for c, mu, table in zip(cells[:3], mus, together):
            (alone,) = solve_intervals([c], [mu])
            assert np.array_equal(table.lower, alone.lower)
            assert np.array_equal(table.upper, alone.upper)
            assert np.array_equal(table.pivots, alone.pivots)
        assert isinstance(together[3], errors.RegionMassUnderflow)
        assert "mu=1e+300" in str(together[3])
