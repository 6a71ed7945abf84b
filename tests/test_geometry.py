import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsetci import IndexSet, errors
from subsetci.criteria import (
    CandidatePolicy,
    Criterion,
    CriterionSpec,
    best_subset,
    penalty_ratio_sizes,
)
from subsetci.geometry import _allowed, _forbidden, decompose, selection_event, selection_events
from subsetci.inference import InferenceTarget, eta_for_target, target_directions
from subsetci.intervals import EMPTY, FULL_LINE, MERGE_REL, IntervalUnion, interval_union

from conftest import random_dataset
from pair_oracle import (
    EtaNotInSpan,
    allowed_row,
    comparison_feasible_set,
    comparison_quadratic,
    intersect,
    outside_bound,
    sequential_region,
    simplified_comparison,
    superset_lower_bound,
)

INF = math.inf


def feasible_from_quadratic(a2, a1, a0, scale2, scale1):
    """Solution set of ``a2 t^2 + a1 t + a0 > 0``, from the library's batched
    failure-set kernel and sweep applied to one comparison."""
    lo, hi = _forbidden(*(np.array([v], dtype=float)
                          for v in (a2, a1, a0, scale2, scale1)),
                        shift=np.zeros(1))
    lo, hi = _allowed(lo.reshape(1, -1), hi.reshape(1, -1))
    return IntervalUnion.from_row(lo[0], hi[0])


def grid_mismatches(d, dec, S_hat, spec, region):
    """Grid points of +-8 scales around ``eta'y`` where membership in
    ``region`` disagrees with rerunning the subset search."""
    from subsetci import SigmaSpec, estimate_sigma

    lam = estimate_sigma(d, S_hat, SigmaSpec.mse_aic()) * math.sqrt(dec.eta_norm2)
    ends = region.endpoints()
    mism = 0
    for t in np.linspace(dec.eta_dot_y - 8 * lam, dec.eta_dot_y + 8 * lam, 201):
        if any(abs(t - e) < 1e-7 for e in ends):
            continue
        sel, _ = best_subset(d.replace_y(t * dec.eta_tilde + dec.z), spec)
        mism += region.contains(t) != (sel == S_hat)
    return mism


def fresh_score(X, y, indices, spec):
    """Criterion score recomputed from scratch (lstsq, no shared code path)."""
    Xs = X[:, [i - 1 for i in indices]]
    resid = y - Xs @ np.linalg.lstsq(Xs, y, rcond=None)[0]
    return spec.penalty(len(indices)) + spec.n * math.log(float(resid @ resid))


class TestDecompose:
    def test_coordinate_projection(self):
        eta = np.array([1.0, 0.0, 0.0])
        y = np.array([3.0, 1.0, 4.0])
        d = decompose(y, eta)
        assert d.eta_dot_y == 3.0
        np.testing.assert_allclose(d.z, [0.0, 1.0, 4.0], atol=1e-15)
        np.testing.assert_allclose(d.eta_tilde, [1.0, 0.0, 0.0], atol=1e-15)

    def test_orthogonal_response_untouched(self, rng):
        eta = np.array([1.0, 1.0, 0.0])
        y = np.array([2.0, -2.0, 7.0])  # eta'y = 0
        d = decompose(y, eta)
        np.testing.assert_allclose(d.z, y, atol=1e-15)

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(20):
            y = rng.standard_normal(12)
            eta = rng.standard_normal(12)
            d = decompose(y, eta)
            scale = np.linalg.norm(y)
            assert abs(d.eta @ d.z) <= 1e-9 * scale * np.linalg.norm(d.eta)
            np.testing.assert_allclose(d.reconstruct(), y, rtol=0, atol=1e-9 * scale)

    def test_zero_eta_rejected(self):
        with pytest.raises(errors.ZeroEta):
            decompose(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            decompose(np.ones(3), np.ones(4))


class TestQuadraticCaseAnalysis:
    def test_upward_parabola_roots(self):
        # t^2 - 1 > 0  <=>  t outside [-1, 1]
        u = feasible_from_quadratic(1.0, 0.0, -1.0, 1.0, 1.0)
        assert u.intervals == ((-INF, -1.0), (1.0, INF))

    def test_negative_discriminant_positive_lead(self):
        u = feasible_from_quadratic(1.0, 0.0, 4.0, 1.0, 1.0)
        assert u == FULL_LINE

    def test_downward_parabola(self):
        u = feasible_from_quadratic(-1.0, 0.0, 4.0, 1.0, 1.0)
        assert u.intervals == ((-2.0, 2.0),)
        assert feasible_from_quadratic(-1.0, 0.0, -4.0, 1.0, 1.0) is EMPTY \
            or feasible_from_quadratic(-1.0, 0.0, -4.0, 1.0, 1.0).is_empty

    def test_linear_branch(self):
        u = feasible_from_quadratic(0.0, 2.0, -4.0, 1.0, 1.0)
        assert u.intervals == ((2.0, INF),)
        u = feasible_from_quadratic(0.0, -2.0, -4.0, 1.0, 1.0)
        assert u.intervals == ((-INF, -2.0),)

    def test_constant_branch(self):
        assert feasible_from_quadratic(0.0, 0.0, 1.0, 1.0, 1.0) == FULL_LINE
        assert feasible_from_quadratic(0.0, 0.0, -1.0, 1.0, 1.0).is_empty

    def test_root_stability_under_cancellation(self):
        # large |a1| relative to a0*a2: naive formula loses the small root
        a2, a1, a0 = 1.0, 1e8, 1.0
        u = feasible_from_quadratic(a2, a1, a0, 1.0, 1.0)
        (_, hi1), (lo2, _) = u.intervals
        # roots are ~ -1e8 and ~ -1e-8; the tiny one must keep precision
        assert hi1 == pytest.approx(-1e8, rel=1e-6)
        assert lo2 == pytest.approx(-1e-8, rel=1e-6)


@st.composite
def failure_sets(draw):
    """``(coefficients, shift, rows)`` for ``_forbidden``: 1-4 rows of 1-8
    comparisons each.  Parabolas are built from their roots, which come
    from three shared anchors, each moved by up to 4 merge tolerances, so
    that roots coincide or nearly coincide within and across comparisons
    (an upward parabola may also reach a fresh root up to 10 units on);
    the rest are half-lines, whole-line sets and empty sets."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    anchors = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 6, 3)

    def root():
        base = anchors[rng.integers(3)]
        return base + int(rng.integers(-4, 5)) * MERGE_REL * max(1.0, abs(base))

    coeffs = []
    for kind in rng.choice(6, size=rows * k, p=[0.3, 0.3, 0.1, 0.1, 0.05, 0.15]):
        lead = float(rng.uniform(0.1, 10.0))
        if kind < 3:  # upward (two kinds) or downward parabola
            r1 = root()
            r2 = r1 + float(rng.uniform(0.0, 10.0)) if kind == 1 else root()
            a2 = -lead if kind == 2 else lead
            coeffs.append((a2, -a2 * (r1 + r2), a2 * r1 * r2))
        elif kind == 3:  # half-line, either way
            a1 = lead * float(rng.choice([-1.0, 1.0]))
            coeffs.append((0.0, a1, -a1 * root()))
        elif kind == 4:  # fails everywhere
            coeffs.append(((-1.0, 0.0, -1.0), (0.0, 0.0, -1.0))[int(rng.integers(2))])
        else:  # fails nowhere
            coeffs.append(((1.0, 0.0, 1.0), (0.0, 0.0, 1.0))[int(rng.integers(2))])
    a2, a1, a0 = np.array(coeffs).T
    ones = np.ones(rows * k)
    shift = np.repeat(rng.choice([0.0, 1.0, -1e3]) * rng.normal(size=rows), k)
    return (a2, a1, a0, ones, ones), shift, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(failure_sets())
def test_row_sweep_equals_the_one_row_reference(case):
    """Every row of the sweep is, float for float, the one-row sweep with
    ``interval_union``'s merge, which therefore never fires; the row's
    pieces come first, then empty (0, 0) padding."""
    coefficients, shift, rows = case
    lo, hi = _forbidden(*coefficients, shift=shift)
    lo, hi = lo.reshape(rows, -1), hi.reshape(rows, -1)
    got_lo, got_hi = _allowed(lo, hi)
    for i in range(rows):
        want = allowed_row(lo[i], hi[i])
        n = len(want)
        assert list(zip(got_lo[i, :n].tolist(), got_hi[i, :n].tolist())) == list(want)
        assert not got_lo[i, n:].any() and not got_hi[i, n:].any()
        row = IntervalUnion.from_row(got_lo[i], got_hi[i])
        assert row == want and interval_union(row) == row


class TestComparisonFeasibleSet:
    def test_grid_membership_matches_fresh_rescoring(self, rng):
        # the defining property, checked on random instances
        for trial in range(12):
            n, p = 14, 4
            d = random_dataset(rng, n=n, p=p)
            spec = CriterionSpec(Criterion.AIC, n)
            S_hat, _ = best_subset(d, spec)
            eta = rng.standard_normal(n)  # arbitrary direction
            dec = decompose(d.y, eta)
            others = [IndexSet((1,)), IndexSet((2, 3)), IndexSet((1, 2, 3, 4))]
            for S in others:
                if S == S_hat:
                    continue
                u = comparison_feasible_set(dec, d, S_hat, S, spec)
                ends = u.endpoints()
                for t in np.linspace(dec.eta_dot_y - 6, dec.eta_dot_y + 6, 101):
                    if any(abs(t - e) < 1e-6 for e in ends):
                        continue
                    yt = t * dec.eta_tilde + dec.z
                    wins = (fresh_score(d.X, yt, S_hat.indices, spec)
                            < fresh_score(d.X, yt, S.indices, spec))
                    assert u.contains(t) == wins, (trial, S, t)

    def test_empty_result_is_legal(self, rng):
        # with eta outside the span, some comparisons can never favor S_hat
        d = random_dataset(rng, n=10, p=3)
        spec = CriterionSpec(Criterion.AIC, 10)
        S_hat, _ = best_subset(d, spec)
        # quadratic with negative lead and negative discriminant gives empty;
        # verify the function can return empty without raising
        dec = decompose(d.y, np.ones(10))
        for S in (IndexSet((1,)), IndexSet((2,)), IndexSet((3,)),
                  IndexSet((1, 2, 3))):
            if S == S_hat:
                continue
            u = comparison_feasible_set(dec, d, S_hat, S, spec)
            assert u is not None  # any union, possibly empty, is acceptable

    def test_same_model_rejected(self, small_data):
        spec = CriterionSpec(Criterion.AIC, small_data.n)
        S = IndexSet((1, 2))
        dec = decompose(small_data.y, np.ones(small_data.n))
        with pytest.raises(errors.InputError):
            comparison_feasible_set(dec, small_data, S, S, spec)

    def test_quadratic_sign_reproduces_score_comparison(self, rng):
        # the raw coefficients must carry the comparison's sign at any t,
        # in particular at the observed eta'y
        for _ in range(10):
            d = random_dataset(rng, n=14, p=4)
            spec = CriterionSpec(Criterion.AIC, 14)
            S_hat, _ = best_subset(d, spec)
            eta = rng.standard_normal(14)
            dec = decompose(d.y, eta)
            for S in (IndexSet((1, 2)), IndexSet((3,)), IndexSet((1, 2, 3, 4))):
                if S == S_hat:
                    continue
                q = comparison_quadratic(dec, d, S_hat, S, spec)
                for t in (dec.eta_dot_y, dec.eta_dot_y + 2.5, dec.eta_dot_y - 4.0):
                    val = q.a2 * t * t + q.a1 * t + q.a0
                    yt = t * dec.eta_tilde + dec.z
                    wins = (fresh_score(d.X, yt, S_hat.indices, spec)
                            < fresh_score(d.X, yt, S.indices, spec))
                    if abs(val) > 1e-9:
                        assert (val > 0) == wins
                assert q.competitor == S


class TestSimplifiedComparison:
    @staticmethod
    def _selected_setup(rng, criterion=Criterion.AIC):
        d = random_dataset(rng, n=16, p=4)
        spec = CriterionSpec(criterion, 16)
        S_hat, _ = best_subset(d, spec)
        i = S_hat.indices[0]
        eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(i))
        return d, spec, S_hat, decompose(d.y, eta)

    def test_agrees_with_general_path(self, rng):
        for _ in range(15):
            d, spec, S_hat, dec = self._selected_setup(rng)
            for S in (IndexSet((1,)), IndexSet((1, 3)), IndexSet((2, 4)),
                      IndexSet((1, 2, 3, 4))):
                if S == S_hat:
                    continue
                a = simplified_comparison(dec, d, S_hat, S, spec)
                b = comparison_feasible_set(dec, d, S_hat, S, spec)
                assert len(a) == len(b)
                for (lo1, hi1), (lo2, hi2) in zip(a, b):
                    for v1, v2 in ((lo1, lo2), (hi1, hi2)):
                        if math.isinf(v1) or math.isinf(v2):
                            assert v1 == v2
                        else:
                            assert v1 == pytest.approx(v2, abs=1e-8 * max(1, abs(v2)))

    def test_superset_comparison_is_constant(self, rng):
        # competitor containing the selected model: full line or empty,
        # decided by z alone
        for _ in range(10):
            d, spec, S_hat, dec = self._selected_setup(rng)
            full = d.full_model()
            if S_hat == full:
                continue
            u = simplified_comparison(dec, d, S_hat, full, spec)
            assert u == FULL_LINE or u.is_empty
            # the observed response beat the superset, so it must be full
            assert u == FULL_LINE

    def test_requires_eta_in_span(self, rng):
        d = random_dataset(rng, n=12, p=3)
        spec = CriterionSpec(Criterion.AIC, 12)
        S_hat, _ = best_subset(d, spec)
        dec = decompose(d.y, rng.standard_normal(12))
        competitor = IndexSet((1,)) if S_hat != IndexSet((1,)) else IndexSet((2,))
        with pytest.raises(EtaNotInSpan):
            simplified_comparison(dec, d, S_hat, competitor, spec)

    def test_centered_parabola_endpoints(self):
        # symmetric case (vanishing cross term): endpoints are +-sqrt(-a0/a2)
        u = feasible_from_quadratic(2.0, 0.0, -8.0, 1.0, 1.0)
        assert u.intervals == ((-INF, -2.0), (2.0, INF))


class TestSelectionEvent:
    def test_observed_point_always_member(self, rng):
        for _ in range(15):
            d = random_dataset(rng, n=15, p=4)
            spec = CriterionSpec(Criterion.AIC, 15)
            S_hat, _ = best_subset(d, spec)
            i = int(rng.choice(S_hat.indices))
            eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(i))
            dec = decompose(d.y, eta)
            ev = selection_event(d, dec, S_hat, spec)
            assert ev.region.contains(dec.eta_dot_y)

    def test_full_model_selected_skips_nothing(self, rng):
        # no strict supersets exist when the full model wins
        for seed in range(40):
            r = np.random.default_rng(seed)
            d = random_dataset(r, n=20, p=3,
                               signal=np.array([4.0, -4.0, 4.0]))
            spec = CriterionSpec(Criterion.AIC, 20)
            S_hat, _ = best_subset(d, spec)
            if S_hat != d.full_model():
                continue
            eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(1))
            dec = decompose(d.y, eta)
            ev = selection_event(d, dec, S_hat, spec)
            assert not any(c.skipped for c in ev.comparisons)
            return
        pytest.fail("full model never selected in 40 tries")

    def test_skip_records_reason_and_counts(self, rng):
        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        S_hat, _ = best_subset(d, spec)
        eta = eta_for_target(d, S_hat,
                             InferenceTarget.coefficient(S_hat.indices[0]))
        dec = decompose(d.y, eta)
        ev = selection_event(d, dec, S_hat, spec)
        skipped = [c for c in ev.comparisons if c.skipped]
        assert len(skipped) == 2 ** (4 - len(S_hat)) - 1
        assert all("superset" in c.reason for c in skipped)
        assert all(c.region is None for c in skipped)

    def test_batch_indexes_like_a_sequence(self, rng):
        # item i is direction i's event
        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 2.0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        S_hat, _ = best_subset(d, spec)
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(i)
                                            for i in S_hat.indices])
        events = selection_events(d, d.y, etas, S_hat, spec)
        assert len(events) == len(S_hat) >= 2
        for i, event in enumerate(events):
            assert event == events[i] == events[i - len(events)]
            assert event.region.contains(float(etas[i] @ d.y))
        empty = selection_events(d, d.y, etas[:0], S_hat, spec)
        assert len(empty) == 0 and list(empty) == []

    def test_wrong_model_rejected(self, rng):
        d = random_dataset(rng, n=15, p=4)
        spec = CriterionSpec(Criterion.AIC, 15)
        S_hat, scored = best_subset(d, spec)
        loser = next(s.model for s in scored if s.model != S_hat)
        eta = eta_for_target(d, loser, InferenceTarget.coefficient(loser.indices[0]))
        dec = decompose(d.y, eta)
        with pytest.raises(errors.NotSelectedModel):
            selection_event(d, dec, loser, spec)

    def test_grid_oracle_small_instance(self, rng):
        # master property: region membership == "rerun selection and compare"
        mism = 0
        for seed in range(8):
            r = np.random.default_rng(seed + 100)
            n, p = 15, 4
            d = random_dataset(r, n=n, p=p)
            spec = CriterionSpec(Criterion.AIC, n)
            S_hat, _ = best_subset(d, spec)
            eta = eta_for_target(d, S_hat,
                                 InferenceTarget.coefficient(S_hat.indices[-1]))
            dec = decompose(d.y, eta)
            mism += grid_mismatches(d, dec, S_hat, spec,
                                    selection_event(d, dec, S_hat, spec).region)
        assert mism == 0

    def test_region_is_intersection_of_active_comparisons(self, rng):
        d = random_dataset(rng, n=15, p=4)
        spec = CriterionSpec(Criterion.AIC, 15)
        S_hat, _ = best_subset(d, spec)
        eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(S_hat.indices[0]))
        dec = decompose(d.y, eta)
        ev = selection_event(d, dec, S_hat, spec)
        acc = FULL_LINE
        for c in ev.comparisons:
            if not c.skipped:
                acc = intersect(acc, c.region)
        assert acc == ev.region

    def test_skip_toggle_leaves_region_unchanged_for_span_eta(self, rng):
        # superset comparisons are constant in t for span directions, so the
        # event that skips them is the oracle's region with or without them
        d = random_dataset(rng, n=15, p=4, signal=np.array([2.0, 0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 15)
        S_hat, _ = best_subset(d, spec)
        eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(S_hat.indices[0]))
        dec = decompose(d.y, eta)
        ev = selection_event(d, dec, S_hat, spec)
        assert any(c.skipped for c in ev.comparisons)
        for skip in (True, False):
            want = sequential_region(dec, d, S_hat, spec, skip)
            assert len(ev.region) == len(want)
            np.testing.assert_allclose(ev.region.endpoints(), want.endpoints(),
                                       rtol=1e-9, atol=1e-12)

    def test_skip_requires_span_eta(self, rng):
        # outside the selected span no comparison is skipped, and the event
        # is exact
        d = random_dataset(rng, n=15, p=4)
        spec = CriterionSpec(Criterion.AIC, 15)
        S_hat, _ = best_subset(d, spec)
        if len(S_hat) == 4:
            pytest.skip("full model selected; any eta is in span")
        dec = decompose(d.y, rng.standard_normal(15))
        ev = selection_event(d, dec, S_hat, spec)
        assert ev.region.contains(dec.eta_dot_y)
        assert not any(c.skipped for c in ev.comparisons)
        assert grid_mismatches(d, dec, S_hat, spec, ev.region) == 0

    def test_empty_model_policy_grid_oracle(self, rng):
        # admitting the no-regressor model adds one more comparison; the
        # region must still match the rerun oracle under the same policy
        policy = CandidatePolicy(include_empty=True)
        for seed in range(3):
            r = np.random.default_rng(seed + 900)
            d = random_dataset(r, n=15, p=3)
            spec = CriterionSpec(Criterion.AIC, 15)
            S_hat, _ = best_subset(d, spec, policy)
            if not len(S_hat):
                continue
            eta = eta_for_target(d, S_hat,
                                 InferenceTarget.coefficient(S_hat.indices[0]))
            dec = decompose(d.y, eta)
            ev = selection_event(d, dec, S_hat, spec, policy=policy)
            assert len(ev.comparisons) == 2 ** 3 - 1
            ends = ev.region.endpoints()
            for t in np.linspace(dec.eta_dot_y - 6, dec.eta_dot_y + 6, 81):
                if any(abs(t - e) < 1e-7 for e in ends):
                    continue
                sel, _ = best_subset(d.replace_y(t * dec.eta_tilde + dec.z),
                                     spec, policy)
                assert ev.region.contains(t) == (sel == S_hat)

    def test_bic_grid_oracle(self, rng):
        for seed in range(4):
            r = np.random.default_rng(seed + 500)
            d = random_dataset(r, n=15, p=3)
            spec = CriterionSpec(Criterion.BIC, 15)
            S_hat, _ = best_subset(d, spec)
            eta = eta_for_target(d, S_hat,
                                 InferenceTarget.coefficient(S_hat.indices[0]))
            dec = decompose(d.y, eta)
            ev = selection_event(d, dec, S_hat, spec)
            ends = ev.region.endpoints()
            for t in np.linspace(dec.eta_dot_y - 6, dec.eta_dot_y + 6, 101):
                if any(abs(t - e) < 1e-7 for e in ends):
                    continue
                sel, _ = best_subset(d.replace_y(t * dec.eta_tilde + dec.z), spec)
                assert ev.region.contains(t) == (sel == S_hat)


class TestSupersetLowerBound:
    """The pair oracle's lower bound on ``(eta'y)^2`` for a coefficient,
    from the sub-models of the selected model that drop it."""

    def test_singleton_model_has_vacuous_bound(self, rng):
        d = random_dataset(rng, n=12, p=2, signal=np.array([8.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 12)
        S_hat, _ = best_subset(d, spec)
        if S_hat != IndexSet((1,)):
            pytest.skip("needs singleton selection")
        eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(1))
        dec = decompose(d.y, eta)
        assert superset_lower_bound(dec, d, S_hat, 1, spec) == 0.0

    def test_observed_statistic_exceeds_bound(self, rng):
        # the bound comes from comparisons the event includes, so neither the
        # observed statistic nor any point of the event lies inside it
        for _ in range(20):
            d = random_dataset(rng, n=15, p=4,
                               signal=np.array([2.0, 1.0, 0.0, 0.0]))
            spec = CriterionSpec(Criterion.AIC, 15)
            S_hat, _ = best_subset(d, spec)
            for i in S_hat.indices:
                eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(i))
                dec = decompose(d.y, eta)
                bound = superset_lower_bound(dec, d, S_hat, i, spec)
                assert dec.eta_dot_y ** 2 > bound - 1e-12
                region = selection_event(d, dec, S_hat, spec).region
                assert outside_bound(region, bound, dec.eta_norm2)

    def test_monotone_in_penalty_strength(self, rng):
        # BIC at large n has a stronger penalty than AIC, so larger omega
        d = random_dataset(rng, n=40, p=3, signal=np.array([1.5, 1.0, 0.0]))
        aic = CriterionSpec(Criterion.AIC, 40)
        bic = CriterionSpec(Criterion.BIC, 40)
        S_hat, _ = best_subset(d, aic)
        if len(S_hat) < 2:
            pytest.skip("needs at least two selected columns")
        i = S_hat.indices[0]
        eta = eta_for_target(d, S_hat, InferenceTarget.coefficient(i))
        dec = decompose(d.y, eta)
        b_aic = superset_lower_bound(dec, d, S_hat, i, aic)
        b_bic = superset_lower_bound(dec, d, S_hat, i, bic)
        assert penalty_ratio_sizes(2, 1, bic) > penalty_ratio_sizes(2, 1, aic)
        assert b_bic >= b_aic - 1e-12
