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
)
from subsetci.geometry import (
    SelectionEvent,
    _allowed,
    _forbidden,
    cut_comparisons,
    decompose,
    event_regions,
    measure,
    selection_event,
    selection_events,
)
from subsetci.inference import InferenceTarget, eta_for_target, target_directions
from subsetci.intervals import (
    EMPTY,
    FULL_LINE,
    MERGE_REL,
    IntervalUnion,
    interval_union,
    padded_rows,
)

from conftest import random_dataset
from pair_oracle import (
    EtaNotInSpan,
    allowed_row,
    comparison_feasible_set,
    comparison_quadratic,
    intersect,
    outside_bound,
    padded_allowed,
    penalty_ratio_sizes,
    sequential_region,
    simplified_comparison,
    superset_lower_bound,
)

INF = math.inf


def feasible_from_quadratic(a2, a1, a0, scale2, scale1):
    """Solution set of ``a2 t^2 + a1 t + a0 > 0``, from the library's batched
    failure-set kernel and sweep applied to one comparison."""
    owner, lo, hi = _forbidden(*(np.array([v], dtype=float)
                                 for v in (a2, a1, a0, scale2, scale1)),
                               shift=np.zeros(1))
    lo, hi = _allowed(owner, lo, hi, 1)
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

    @pytest.mark.parametrize("k", [-700, -530, 0, 530, 700])
    def test_scale_by_a_power_of_two_is_exact(self, k):
        # |eta|^2 would overflow or underflow at |k| >= 512; the split of a
        # direction scaled by 2**k is still the unscaled split, scaled
        y = np.array([3.0, 1.0, 4.0, -1.5])
        eta = np.array([0.3, -1.7, 0.0, 2.2])
        d, dk = decompose(y, eta), decompose(y, np.ldexp(eta, k))
        assert dk.eta_dot_y == math.ldexp(d.eta_dot_y, k)
        assert np.array_equal(dk.eta_tilde, np.ldexp(d.eta_tilde, -k))
        assert np.array_equal(dk.z, d.z)

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            decompose(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_response_is_an_input_error(self, bad):
        # a NaN response once gave eta'y = nan without an error
        y = np.array([bad, 1.0, 2.0, 3.0])
        with pytest.raises(errors.InputError, match="response holds a non-finite"):
            decompose(y, np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_direction_is_an_input_error(self, bad):
        # a NaN direction once gave eta'y = nan, and an infinite one only
        # warned
        with pytest.raises(errors.InputError, match="eta holds a non-finite"):
            decompose(np.arange(4.0), np.array([bad, 1.0, 0.0, 0.0]))

    def test_overflowing_eta_dot_y_is_an_input_error(self):
        # finite input whose eta'y passes the largest float once gave
        # eta'y = inf and a NaN z, with warnings only
        with pytest.raises(errors.InputError, match="eta'y overflows"):
            decompose(np.full(4, 1e10), np.array([1e300, 1.0, 0.0, 0.0]))


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

    @pytest.mark.parametrize("centre", [0.0, 1e3, -1e6])
    @pytest.mark.parametrize("width, forbids", [(0.5, False), (2.0, True)])
    def test_merge_tolerance_is_measured_in_the_scaled_coordinate(
            self, centre, width, forbids):
        # (u - 1e-13)(u - 1e-13 - w) fails on a sliver of width w around
        # s = centre + u; narrower than MERGE_REL * max(1, |s|) in the scaled
        # coordinate s, it forbids nothing, and twice as wide it forbids,
        # whatever the direction's own scale was
        r1 = 1e-13
        r2 = r1 + width * MERGE_REL * max(1.0, abs(centre))
        coefficients = [np.array([v]) for v in (1.0, -(r1 + r2), r1 * r2)]
        owner, _, _ = _forbidden(*coefficients, np.ones(1), np.ones(1),
                                 shift=np.array([centre]))
        assert (owner.size > 0) == forbids


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
def test_failure_sets_are_nonempty_entries_of_their_comparisons(case):
    """Every entry is a nonempty set (lo <= hi) of a comparison in range,
    and no comparison owns more than two."""
    coefficients, shift, _ = case
    owner, lo, hi = _forbidden(*coefficients, shift=shift)
    assert owner.shape == lo.shape == hi.shape
    assert (lo <= hi).all()
    assert ((0 <= owner) & (owner < shift.size)).all()
    assert np.bincount(owner, minlength=shift.size).max(initial=0) <= 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(failure_sets())
def test_row_sweep_equals_the_one_row_reference(case):
    """Every row of the sweep is, float for float, the one-row sweep with
    ``interval_union``'s merge, which therefore never fires; the row's
    pieces come first, then empty (0, 0) padding."""
    coefficients, shift, rows = case
    owner, lo, hi = _forbidden(*coefficients, shift=shift)
    of = owner // (shift.size // rows)
    got_lo, got_hi = _allowed(of, lo, hi, rows)
    for i in range(rows):
        want = allowed_row(lo[of == i], hi[of == i])
        n = len(want)
        assert list(zip(got_lo[i, :n].tolist(), got_hi[i, :n].tolist())) == list(want)
        assert not got_lo[i, n:].any() and not got_hi[i, n:].any()
        row = IntervalUnion.from_row(got_lo[i], got_hi[i])
        assert row == want and interval_union(row) == row


# ends shared by many sets, so that sets nest, touch (a left end equal to an
# earlier right end) and span the whole line
SWEEP_ENDS = (-INF, -2.5, -1.0, 0.0, 0.0, 1.0, 1.0 + 1e-15, 3.0, INF)


@st.composite
def padded_sets(draw):
    """``(lo, hi, order)``: (rows, K) closed sets ``[lo, hi]``, each empty
    where ``lo > hi``, with 0-5 rows (none: a response without directions),
    some rows holding no set at all, and an order to list the nonempty
    entries in."""
    rows, k = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    # no -0.0: it equals 0.0, and the two sweeps may keep either zero
    end = st.sampled_from(SWEEP_ENDS) | st.floats(-4.0, 4.0).map(lambda v: v + 0.0)
    pairs = draw(st.lists(st.tuples(end, end), min_size=rows * k,
                          max_size=rows * k))
    lo, hi = np.array(pairs, dtype=float).reshape(rows, k, 2).transpose(2, 0, 1)
    blank = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    lo[blank], hi[blank] = INF, -INF
    order = draw(st.permutations(np.flatnonzero(lo <= hi).tolist()))
    return lo.copy(), hi.copy(), np.array(order, dtype=int)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(padded_sets())
def test_segmented_sweep_equals_the_padded_sweep(case):
    """The sweep over the nonempty flat (row, lo, hi) entries, in any order,
    gives bit for bit the padded rows of the sweep over padded rows, empty
    sets included, shape included."""
    lo, hi, order = case
    rows, k = lo.shape
    want = padded_allowed(lo, hi)
    row = np.repeat(np.arange(rows), k)[order]
    got = _allowed(row, lo.ravel()[order], hi.ravel()[order], rows)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


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

    def test_events_are_built_in_one_solve_and_two_sweeps(self, rng, monkeypatch):
        # one solve of every direction's comparisons; one sweep for the
        # regions and one, of each comparison alone, for the records, which
        # are all built by the call: reading the events adds nothing
        from subsetci import geometry

        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 2.0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        S_hat, _ = best_subset(d, spec)
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(i)
                                            for i in S_hat.indices])
        solves, sweeps, records = [], [], []
        forbidden, allowed = geometry._forbidden, geometry._allowed
        record = geometry.ComparisonRecord
        monkeypatch.setattr(geometry, "_forbidden",
                            lambda *args: solves.append(1) or forbidden(*args))
        monkeypatch.setattr(geometry, "_allowed",
                            lambda *args: sweeps.append(1) or allowed(*args))
        monkeypatch.setattr(geometry, "ComparisonRecord",
                            lambda *args: records.append(1) or record(*args))
        events = selection_events(d, d.y, etas, S_hat, spec)
        counts = (len(solves), len(sweeps), len(records))
        assert counts == (1, 2, len(etas) * (2 ** 4 - 2))
        assert all(len(event.comparisons) == 2 ** 4 - 2 for event in events)
        assert events[0].comparisons != events[1].comparisons
        assert (len(solves), len(sweeps), len(records)) == counts

    def test_event_records_its_direction(self, rng):
        # eta is the row the event was cut along and z the response's part
        # orthogonal to it, bit for bit decompose's whatever the row's place
        # in the stack; both are left out of ==
        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 2.0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        S_hat, _ = best_subset(d, spec)
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(i)
                                            for i in S_hat.indices] + [
            InferenceTarget.prediction_mean(x) for x in rng.standard_normal((6, 4))])
        for eta, event in zip(etas, selection_events(d, d.y, etas, S_hat, spec)):
            assert np.array_equal(event.eta, eta)
            assert np.array_equal(event.z, decompose(d.y, eta).z)
            assert event == SelectionEvent(event.selected, event.region,
                                           event.comparisons)
        dec = decompose(d.y, etas[0])
        assert np.array_equal(selection_event(d, dec, S_hat, spec).eta, dec.eta)

    def test_cut_hands_on_what_measure_gives(self, rng):
        # a study's cells take eta'y and |eta| from the cut, the one-target
        # API from measure: bit for bit the same pair (the square root of
        # the cut's own |unit|^2 rounds otherwise in some rows)
        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 2.0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        S_hat, _ = best_subset(d, spec)
        etas = target_directions(d, S_hat, [
            InferenceTarget.prediction_mean(x) for x in rng.standard_normal((20, 4))])
        got = cut_comparisons(d, d.y, etas, S_hat, spec).measurement
        assert all(map(np.array_equal, got, measure(d.y, etas)))

    @staticmethod
    def _aic_problem():
        d = random_dataset(np.random.default_rng(0), n=20, p=4,
                           signal=np.array([1.0, 2.0, 0.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 20)
        S_hat, _ = best_subset(d, spec)
        assert S_hat == IndexSet((1, 2))
        return d, spec, S_hat

    @pytest.mark.parametrize("s", [1.0, 1e150, 1e-150, 1e160, 1e-160, 1e-200])
    def test_direction_scale_does_not_change_the_event(self, s):
        # |eta|^2 overflows beyond 1e154 and underflows below 1e-162: the
        # event along s * e_1 is still s times the event along e_1
        d, spec, S_hat = self._aic_problem()
        eta = np.zeros(20)
        eta[0] = s
        event = selection_events(d, d.y, eta[None, :], S_hat, spec)[0]
        ((lo, hi),) = event.region.intervals
        assert (lo / s, hi / s) == pytest.approx((-11.57908, 13.95408), abs=1e-5)
        assert event.region.contains(float(eta @ d.y))
        np.testing.assert_allclose(event.z, decompose(d.y, np.eye(20)[0]).z,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [-300, -40, -20, 300, 600])
    def test_direction_scaled_by_a_power_of_two_gives_the_scaled_event(self, k):
        # exactly: the scaled direction's |eta|^2 overflows at k = 600.  The
        # merge tolerance is measured in the direction's scaled coordinate,
        # so the excluded piece [-0.348, 0.348] of the coefficient-1 event
        # stays from k = -40 on, where it is narrower than 1e-12 in eta'y
        d, spec, S_hat = self._aic_problem()
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(i)
                                            for i in S_hat.indices])
        base_lo, base_hi = padded_rows(
            [e.region for e in selection_events(d, d.y, etas, S_hat, spec)])
        lo, hi = padded_rows([e.region for e in selection_events(
            d, d.y, np.ldexp(etas, k), S_hat, spec)])
        assert np.array_equal(lo, np.ldexp(base_lo, k))
        assert np.array_equal(hi, np.ldexp(base_hi, k))

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_direction_is_an_input_error(self, bad):
        # once an InvariantViolation (exit 4) after RuntimeWarnings
        d, spec, S_hat = self._aic_problem()
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(1)])
        etas[0, 3] = bad
        with pytest.raises(errors.InputError, match="eta holds a non-finite"):
            selection_events(d, d.y, etas, S_hat, spec)

    @pytest.mark.parametrize("bad", [math.nan, INF])
    def test_non_finite_response_is_an_input_error(self, bad):
        # a NaN response once failed as NotSelectedModel (exit 3)
        d, spec, S_hat = self._aic_problem()
        etas = target_directions(d, S_hat, [InferenceTarget.coefficient(1)])
        y = d.y.copy()
        y[2] = bad
        with pytest.raises(errors.InputError, match="response holds a non-finite"):
            selection_events(d, y, etas, S_hat, spec)

    def test_batch_regions_are_each_response_alone(self, rng):
        # one solve and one sweep over several responses (one without
        # directions) give each response its own call's rows, bit for bit
        d = random_dataset(rng, n=18, p=4, signal=np.array([3.0, 2.0, 0, 0]))
        spec = CriterionSpec(Criterion.AIC, 18)
        batch = []
        for trial in range(5):
            data = d.replace_y(d.y + 0.5 * rng.standard_normal(18))
            S_hat, _ = best_subset(data, spec)
            chosen = S_hat.indices[:trial % 3]
            etas = target_directions(data, S_hat, [InferenceTarget.coefficient(i)
                                                   for i in chosen])
            batch.append(cut_comparisons(data, data.y, etas, S_hat, spec))
        assert min(len(c.t) for c in batch) == 0
        for (lo, hi), cut in zip(event_regions(batch), batch):
            own_lo, own_hi = event_regions([cut])[0]
            assert lo.shape == own_lo.shape and lo.tobytes() == own_lo.tobytes()
            assert hi.tobytes() == own_hi.tobytes()

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
