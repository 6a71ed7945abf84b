"""The R-space candidate engine against direct n-space oracles.

Designs are drawn by hypothesis and cover a forced intercept, a capped model
size and the empty model.
"""

import math
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subsetci import Dataset, IndexSet, criteria, errors
from subsetci.criteria import (
    DEFAULT_POLICY,
    CandidatePolicy,
    CandidateSet,
    Criterion,
    CriterionSpec,
    best_subset,
    candidate_set,
)
from subsetci.geometry import (
    ETA_SPAN_TOL,
    LEAD_TOL,
    Comparisons,
    cut_comparisons,
    decompose,
    selection_event,
    selection_events,
)
from subsetci.inference import InferenceTarget, eta_for_target
from subsetci.intervals import FULL_LINE, padded_rows
from subsetci.linmodel import INTERCEPT_FORCED, INTERCEPT_NONE

import pair_oracle

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def designs(draw):
    """(dataset, policy, rng) with n >= p + 4, so AICc is defined everywhere."""
    p = draw(st.integers(2, 5))
    intercept = draw(st.booleans())
    n = draw(st.integers(p + 4, 24))
    n_free = p - 1 if intercept else p
    policy = CandidatePolicy(
        max_size=draw(st.one_of(st.none(), st.integers(1, n_free))),
        include_empty=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, p))
    if intercept:
        X[:, 0] = 1.0
    y = X @ rng.normal(scale=2.0, size=p) + rng.standard_normal(n)
    data = Dataset(X, y, tuple(f"x{j}" for j in range(1, p + 1)),
                   intercept_policy=INTERCEPT_FORCED if intercept
                   else INTERCEPT_NONE)
    return data, policy, rng


def _lstsq_residual(X, S, v):
    if not len(S):
        return v
    Xs = X[:, [i - 1 for i in S.indices]]
    return v - Xs @ np.linalg.lstsq(Xs, v, rcond=None)[0]


def _selected_direction(data, policy, rng, criterion, prediction=False):
    spec = CriterionSpec(criterion, data.n)
    S_hat, _ = best_subset(data, spec, policy)
    assume(len(S_hat) > 0)
    if prediction:
        target = InferenceTarget.prediction_mean(rng.standard_normal(data.p))
    else:
        target = InferenceTarget.coefficient(int(rng.choice(S_hat.indices)))
    dec = decompose(data.y, eta_for_target(data, S_hat, target))
    return spec, S_hat, dec


def _assert_same_region(got, want):
    assert len(got) == len(want), (got, want)
    for (lo1, hi1), (lo2, hi2) in zip(got, want):
        for a, b in ((lo1, lo2), (hi1, hi2)):
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (got, want)


@KERNEL_SETTINGS
@given(designs())
def test_rss_and_gram_match_lstsq_residuals(case):
    data, policy, rng = case
    cs = candidate_set(data, policy)
    a = rng.standard_normal(data.n)
    b = rng.standard_normal(data.n)
    rss = cs.rss_all(data.y)
    aa, (ab,), (bb,) = cs.gram(a, b[None])
    for pos, S in enumerate(cs.models):
        ry = _lstsq_residual(data.X, S, data.y)
        ra = _lstsq_residual(data.X, S, a)
        rb = _lstsq_residual(data.X, S, b)
        assert rss[pos] == pytest.approx(ry @ ry, rel=1e-12, abs=0)
        assert aa[pos] == pytest.approx(ra @ ra, rel=1e-12, abs=0)
        assert bb[pos] == pytest.approx(rb @ rb, rel=1e-12, abs=0)
        bound = math.sqrt((ra @ ra) * (rb @ rb))
        assert abs(ab[pos] - ra @ rb) <= 1e-12 * bound


@KERNEL_SETTINGS
@given(designs(), st.integers(1, 3))
def test_gram_matches_per_model_qr_oracle(case, count):
    # every candidate's residual inner products of a vector and a stack of
    # vectors, against each model's own thin QR in n-space
    data, policy, rng = case
    cs = candidate_set(data, policy)
    a = rng.standard_normal(data.n)
    B = rng.standard_normal((count, data.n))
    aa, ab, bb = cs.gram(a, B)
    for pos, S in enumerate(cs.models):
        ra = pair_oracle.residual_project(data, S, a)
        for t, b in enumerate(B):
            rb = pair_oracle.residual_project(data, S, b)
            assert bb[t, pos] == pytest.approx(rb @ rb, rel=1e-13, abs=0)
            bound = math.sqrt((ra @ ra) * (rb @ rb))
            assert abs(ab[t, pos] - ra @ rb) <= 1e-13 * bound
        assert aa[pos] == pytest.approx(ra @ ra, rel=1e-13, abs=0)


@KERNEL_SETTINGS
@given(designs())
def test_direction_in_a_models_span_leaves_it_no_negative_residual(case):
    # summed down from the full model, |R_S eta|^2 is a sum of squares: a
    # direction inside span X[:, S] gives a tiny c2 that is never negative,
    # and the selection events' in-span rule, applied to it, decides as the
    # oracle does
    data, policy, rng = case
    cs = candidate_set(data, policy)
    for S in cs.models:
        if not len(S):
            continue
        eta = data.X[:, [i - 1 for i in S.indices]] @ rng.standard_normal(len(S))
        norm2 = float(eta @ eta)
        _, _, (c2,) = cs.gram(data.y, (eta / norm2)[None])
        hat = cs.index_of(S)
        assert c2[hat] >= 0.0
        assert (math.sqrt(c2[hat]) * norm2 <= ETA_SPAN_TOL * math.sqrt(norm2)) \
            == pair_oracle.eta_in_span(decompose(data.y, eta), data, S)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans())
def test_swept_region_equals_sequential_pair_intersection(case, criterion, skip):
    # along a direction in the selected span the event skips superset
    # comparisons; the oracle's region is the same with or without them
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion)
    event = selection_event(data, dec, S_hat, spec, policy=policy)
    want = pair_oracle.sequential_region(dec, data, S_hat, spec, skip, policy)
    _assert_same_region(event.region, want)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans())
def test_skipping_supersets_leaves_region_unchanged(case, criterion, prediction):
    # every superset comparison the event skips holds on the whole line
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion,
                                           prediction)
    event = selection_event(data, dec, S_hat, spec, policy=policy)
    for c in event.comparisons:
        if c.skipped:
            assert pair_oracle.simplified_comparison(
                dec, data, S_hat, c.competitor, spec) == FULL_LINE
    _assert_same_region(event.region, pair_oracle.sequential_region(
        dec, data, S_hat, spec, False, policy))


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)))
def test_swept_region_equals_pair_intersection_off_span(case, criterion):
    # a direction outside the selected span gives downward parabolas too
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    dec = decompose(data.y, rng.standard_normal(data.n))
    event = selection_event(data, dec, S_hat, spec, policy=policy)
    want = pair_oracle.sequential_region(dec, data, S_hat, spec, False, policy)
    _assert_same_region(event.region, want)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)),
       st.sampled_from(["coefficient", "prediction", "off-span"]))
def test_observed_statistic_lies_in_its_event(case, criterion, direction):
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion,
                                           direction == "prediction")
    if direction == "off-span":
        dec = decompose(data.y, rng.standard_normal(data.n))
    event = selection_event(data, dec, S_hat, spec, policy=policy)
    assert event.region.contains(dec.eta_dot_y)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)))
def test_superset_lower_bound_matches_pair_oracle(case, criterion):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    i = int(rng.choice(S_hat.indices))
    # a coefficient's event lies outside the oracle's bound on (eta'y)^2
    eta = eta_for_target(data, S_hat, InferenceTarget.coefficient(i))
    dec = decompose(data.y, eta)
    bound = pair_oracle.superset_lower_bound(dec, data, S_hat, i, spec, policy)
    region = selection_event(data, dec, S_hat, spec, policy=policy).region
    assert pair_oracle.outside_bound(region, bound, dec.eta_norm2)


def _directions(data, S_hat, rng, count, off_span):
    """``count`` directions: coefficient and prediction targets of the
    selected model, plus arbitrary vectors of R^n when ``off_span``."""
    etas = []
    for _ in range(count):
        kind = rng.integers(3 if off_span else 2)
        if kind == 0:
            target = InferenceTarget.coefficient(int(rng.choice(S_hat.indices)))
            etas.append(eta_for_target(data, S_hat, target))
        elif kind == 1:
            target = InferenceTarget.prediction_mean(rng.standard_normal(data.p))
            etas.append(eta_for_target(data, S_hat, target))
        else:
            etas.append(rng.standard_normal(data.n))
    return np.array(etas)


def cs_models(data, policy):
    return candidate_set(data, policy).models


def _oracle_records(dec, data, S_hat, spec, policy):
    """(competitor, per-pair set or None if skipped) in canonical order: a
    direction in the selected span skips the strict supersets of ``S_hat``."""
    in_span = pair_oracle.eta_in_span(dec, data, S_hat)
    out = []
    for S in cs_models(data, policy):
        if S == S_hat:
            continue
        if in_span and pair_oracle.is_superset(S, S_hat):
            out.append((S, None))
        else:
            out.append((S, pair_oracle.comparison_feasible_set(
                dec, data, S_hat, S, spec)))
    return out


def _check_events_against_single_calls_and_oracle(data, etas, events, S_hat,
                                                  spec, policy):
    """Each batched event (with its comparison records) is its own
    one-direction call's and the pair oracle's: skipping supersets for a
    direction in the selected span, including them for any other."""
    assert len(events) == len(etas)
    for eta, event in zip(etas, events):
        dec = decompose(data.y, eta)
        one = selection_event(data, dec, S_hat, spec, policy=policy)
        in_span = pair_oracle.eta_in_span(dec, data, S_hat)
        assert event.selected == S_hat
        _assert_same_region(event.region, one.region)
        _assert_same_region(event.region, pair_oracle.sequential_region(
            dec, data, S_hat, spec, in_span, policy))
        want = _oracle_records(dec, data, S_hat, spec, policy)
        assert len(event.comparisons) == len(one.comparisons) == len(want)
        for got, single, (competitor, oracle) in zip(event.comparisons,
                                                     one.comparisons, want):
            assert got.competitor == single.competitor == competitor
            assert got.skipped == single.skipped == (oracle is None)
            assert got.reason == single.reason
            if oracle is not None:
                _assert_same_region(got.region, single.region)
                _assert_same_region(got.region, oracle)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.integers(1, 4))
def test_batched_events_match_single_calls_and_pair_oracle(case, criterion,
                                                           off_span, count):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = _directions(data, S_hat, rng, count, off_span)
    events = selection_events(data, data.y, etas, S_hat, spec, policy=policy)
    assert len(events) == count
    for eta, event in zip(etas, events):
        dec = decompose(data.y, eta)
        assert event.selected == S_hat
        one = selection_event(data, dec, S_hat, spec, policy=policy)
        _assert_same_region(event.region, one.region)
        _assert_same_region(event.region, pair_oracle.sequential_region(
            dec, data, S_hat, spec, False, policy))


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.integers(1, 3))
def test_batched_comparison_records_match_single_calls_and_pair_oracle(
        case, criterion, off_span, count):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = _directions(data, S_hat, rng, count, off_span)
    events = selection_events(data, data.y, etas, S_hat, spec, policy=policy)
    _check_events_against_single_calls_and_oracle(data, etas, events, S_hat,
                                                  spec, policy)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)),
       st.lists(st.sampled_from(["in-span", "nudged", "off-span"]),
                max_size=3))
def test_mixed_span_batches_skip_supersets_only_in_span(case, criterion,
                                                        kinds):
    # a batch mixing directions inside and outside the selected span: each
    # direction follows its own rule, as in its one-direction call.  A nudged
    # direction leaves the span by 5e-9 relative, inside ETA_SPAN_TOL: its
    # superset comparisons keep a small linear term that would cut a spurious
    # far-tail root if they were not skipped
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    assume(len(S_hat) < data.p)  # the full model has every eta in span
    kinds = kinds + ["nudged", "off-span"]
    etas = []
    for kind in kinds:
        if kind == "off-span":
            etas.append(rng.standard_normal(data.n))
            continue
        eta = eta_for_target(data, S_hat, InferenceTarget.prediction_mean(
            rng.standard_normal(data.p)))
        if kind == "nudged":
            off = _lstsq_residual(data.X, S_hat, rng.standard_normal(data.n))
            eta = eta + 5e-9 * np.linalg.norm(eta) / np.linalg.norm(off) * off
        etas.append(eta)
    etas = np.array(etas)
    events = selection_events(data, data.y, etas, S_hat, spec, policy=policy)
    assert [pair_oracle.eta_in_span(decompose(data.y, eta), data, S_hat)
            for eta in etas] == [kind != "off-span" for kind in kinds]
    _check_events_against_single_calls_and_oracle(data, etas, events, S_hat,
                                                  spec, policy)


def _linear_direction(data, S_hat, spec, policy, rng):
    """A direction along which the comparison of ``S_hat`` with a smaller
    model ``S`` is linear in t, and that ``S``.  With g in the span of
    ``S_hat`` and h orthogonal to every column, eta = g + a h gives
    |R_S eta|^2 - omega |R_hat eta|^2 = |R_S g|^2 - (omega - 1) a^2 |h|^2,
    which vanishes at the ``a`` below (omega > 1, as S has the smaller
    penalty)."""
    cs = candidate_set(data, policy)
    smaller = [S for S in cs.models if len(S) < len(S_hat)]
    assume(smaller)
    S = smaller[int(rng.integers(len(smaller)))]
    penalties = cs.penalties(spec)
    omega = math.exp((penalties[cs.index_of(S_hat)]
                      - penalties[cs.index_of(S)]) / spec.n)
    g = data.X[:, [i - 1 for i in S_hat.indices]] @ rng.standard_normal(len(S_hat))
    h = pair_oracle.residual_project(data, data.full_model(),
                                     rng.standard_normal(data.n))
    rg = pair_oracle.residual_project(data, S, g)
    a = math.sqrt((rg @ rg) / ((omega - 1.0) * (h @ h)))
    return g + a * h, S


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)),
       st.lists(st.sampled_from(["in-span", "off-span", "linear"]),
                min_size=1, max_size=4))
def test_screened_sweep_equals_the_unscreened_one(case, criterion, kinds):
    # the event solves only the comparisons that can fail; its region rows
    # are, float for float, those of solving every comparison
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = []
    for kind in kinds:
        if kind == "in-span":
            etas.extend(_directions(data, S_hat, rng, 1, off_span=False))
        elif kind == "off-span":
            etas.append(rng.standard_normal(data.n))
        else:
            eta, S = _linear_direction(data, S_hat, spec, policy, rng)
            dec = decompose(data.y, eta)
            quad = pair_oracle.comparison_quadratic(dec, data, S_hat, S, spec)
            scale2, scale1 = pair_oracle._pair_scales(
                dec, pair_oracle.penalty_ratio_sizes(
                    data.free_size(S_hat), data.free_size(S), spec))
            assert abs(quad.a2) <= LEAD_TOL * scale2
            assert abs(quad.a1) > LEAD_TOL * scale1
            etas.append(eta)
    etas = np.array(etas)
    got_lo, got_hi = padded_rows([e.region for e in selection_events(
        data, data.y, etas, S_hat, spec, policy=policy)])
    lo, hi = pair_oracle.unscreened_event_rows(data, data.y, etas, S_hat,
                                               spec, policy)
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)


def _mixed_cut(case, criterion, kinds, null):
    """``(data, policy, spec, S_hat, etas)``: one direction per kind through
    the response's selected model ``S_hat``, in its span, off it, along which
    a comparison is linear in t (see :func:`_linear_direction`), zero, or
    too small to measure.  Under ``null`` the response is noise alone, which
    selects a small model, with strict supersets, and the directions gain
    one in the selected span and one off it."""
    data, policy, rng = case
    if null:
        data = data.replace_y(rng.standard_normal(data.n))
        kinds = kinds + ["in-span", "off-span"]
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = []
    for kind in kinds:
        if kind == "off-span":
            etas.append(rng.standard_normal(data.n))
        elif kind == "linear":
            etas.append(_linear_direction(data, S_hat, spec, policy, rng)[0])
        elif kind == "zero":
            etas.append(np.zeros(data.n))
        else:
            eta = _directions(data, S_hat, rng, 1, off_span=False)[0]
            # below the smallest normal float: too small to measure
            etas.append(np.ldexp(eta, -1100) if kind == "tiny" else eta)
    return data, policy, spec, S_hat, np.array(etas)


# the criterion, kinds and null arguments of _mixed_cut
MIXED_CUTS = (st.sampled_from(list(Criterion)),
              st.lists(st.sampled_from(["in-span", "off-span", "linear", "zero",
                                        "tiny"]), min_size=1, max_size=5),
              st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(designs(), *MIXED_CUTS)
def test_cut_equals_the_gathered_one(case, criterion, kinds, null):
    # the cut forms every comparison over the whole candidate row and masks
    # its screen once; every field is, float for float and in the same
    # order, that of gathering the active candidates' columns first
    data, policy, spec, S_hat, etas = _mixed_cut(case, criterion, kinds, null)
    got = cut_comparisons(data, data.y, etas, S_hat, spec, policy)
    want = pair_oracle.gathered_comparisons(data, data.y, etas, S_hat, spec,
                                            policy)
    for f in fields(Comparisons):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g.dtype == w.dtype and np.array_equal(g, w), f.name


def _can_fail(dec, data, S_hat, S, spec):
    """The cut's screen on the pair oracle's comparison: all but an upward
    parabola without a real root."""
    quad = pair_oracle.comparison_quadratic(dec, data, S_hat, S, spec)
    scale2, _ = pair_oracle._pair_scales(dec, pair_oracle.penalty_ratio_sizes(
        data.free_size(S_hat), data.free_size(S), spec))
    return (not quad.a2 > LEAD_TOL * scale2
            or quad.a1 * quad.a1 - 4.0 * quad.a2 * quad.a0 > 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(designs(), *MIXED_CUTS)
def test_cut_rows_skip_the_selected_model_and_in_span_supersets(case, criterion,
                                                                kinds, null):
    # each direction's competitors ascend and never include S_hat; along a
    # direction in the selected span no strict superset of S_hat is kept,
    # and along any other one each superset comparison that can fail is
    data, policy, spec, S_hat, etas = _mixed_cut(case, criterion, kinds, null)
    cut = cut_comparisons(data, data.y, etas, S_hat, spec, policy)
    models = cs_models(data, policy)
    hat = models.index(S_hat)
    supersets = {m for m, S in enumerate(models)
                 if S != S_hat and pair_oracle.is_superset(S, S_hat)}
    for i, (eta, in_span) in enumerate(zip(etas[cut.kept], cut.in_span)):
        mine = cut.model[cut.row == i]
        assert (np.diff(mine) > 0).all() and hat not in mine
        kept = supersets & set(mine.tolist())
        if in_span:
            assert not kept
        else:
            dec = decompose(data.y, eta)
            assert kept == {m for m in supersets
                            if _can_fail(dec, data, S_hat, models[m], spec)}


def _error_of(call):
    """(type, message) of the error ``call()`` raises, or None."""
    try:
        call()
    except errors.SubsetCIError as exc:
        return type(exc), str(exc)
    return None


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)),
       st.lists(st.sampled_from(["in-span", "off-span", "zero", "tiny"]),
                min_size=1, max_size=4),
       st.sampled_from([None, "zero", "tiny"]), st.booleans())
def test_a_refused_direction_decides_the_error_first(case, criterion, kinds,
                                                     last, wrong_model):
    # a batch with a refused direction raises the first refused direction's
    # own error (its decompose's), whatever the model or the other
    # directions would raise; otherwise the first failing direction's.
    # ``last`` appends a refused direction, so that with a wrong model it
    # follows a direction whose own call fails on the model
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    if wrong_model:
        others = [S for S in cs_models(data, policy) if S != S_hat]
        assume(others)
        S_hat = others[int(rng.integers(len(others)))]
    etas = []
    for kind in kinds + [last] * (last is not None):
        if kind == "zero":
            etas.append(np.zeros(data.n))
        elif kind == "off-span":
            etas.append(rng.standard_normal(data.n))
        else:
            eta = (eta_for_target(data, S_hat, InferenceTarget.coefficient(
                int(rng.choice(S_hat.indices)))) if len(S_hat)
                else data.X[:, 0].copy())
            # below the smallest normal float: too small to measure
            etas.append(np.ldexp(eta, -1100) if kind == "tiny" else eta)
    refused = [_error_of(lambda: decompose(data.y, eta)) for eta in etas]
    own = [_error_of(lambda: selection_event(data, decompose(data.y, eta),
                                             S_hat, spec, policy=policy))
           for eta in etas]
    want = next((e for e in refused + own if e is not None), None)
    got = _error_of(lambda: selection_events(data, data.y, np.array(etas), S_hat,
                                             spec, policy=policy))
    assert got == want
    if want is None:
        assert len(selection_events(data, data.y, np.array(etas), S_hat, spec,
                                    policy=policy)) == len(etas)


def test_batched_events_refuse_mismatched_directions(small_data):
    spec = CriterionSpec(Criterion.AIC, small_data.n)
    S_hat, _ = best_subset(small_data, spec)
    with pytest.raises(errors.DimensionMismatch):
        selection_events(small_data, small_data.y,
                         np.ones((2, small_data.n + 1)), S_hat, spec)


def _collinear_pair_design():
    # the full design passes the rank check (|diag R| spans 1 .. 1e-6), but
    # columns 2 and 3 alone leave a 1e-6 residual against a 1e6 column
    X = np.zeros((6, 3))
    X[0] = [1.0, 1e6, 1e6]
    X[1] = [0.0, 1.0, 1.0]
    X[2] = [0.0, 0.0, 1e-6]
    y = np.arange(1.0, 7.0)
    return Dataset(X, y, ("a", "b", "c"))


def test_collinear_submodel_raises_from_candidate_build():
    data = _collinear_pair_design()
    with pytest.raises(errors.RankDeficient) as exc:
        data._qr_of((2, 3))
    assert exc.value.model == IndexSet((2, 3))
    with pytest.raises(errors.RankDeficient) as exc:
        candidate_set(data)
    assert exc.value.model == IndexSet((2, 3))


def test_candidate_list_is_shared_but_rank_check_runs_per_design(rng):
    names = ("a", "b", "c")
    first = candidate_set(Dataset(rng.standard_normal((6, 3)),
                                  np.arange(1.0, 7.0), names))
    with pytest.raises(errors.RankDeficient):
        candidate_set(_collinear_pair_design())
    second = candidate_set(Dataset(rng.standard_normal((6, 3)),
                                   np.arange(1.0, 7.0), names))
    assert second is not first
    assert len(second.models) == len(first.models) == 7
    assert all(a is b for a, b in zip(first.models, second.models))


@st.composite
def basis_designs(draw):
    """(dataset, policy) over random, ill-scaled and planted-collinear designs.

    A planted design replaces its last 2 or 3 columns with copies of
    ``b = 1e6 a + z``, each plus its own 1e-6 times noise, where ``a`` is
    the column before them and ``z`` the first of them.  The full design
    passes the rank check, since ``a`` absorbs the large part, but every
    model holding two copies without ``a`` is deficient at about 1e-12.
    """
    kind = draw(st.sampled_from(["random", "ill-scaled", "collinear"]))
    intercept = draw(st.booleans())
    copies = draw(st.integers(2, 3))
    p = draw(st.integers(copies + 1 + intercept if kind == "collinear" else 2, 6))
    n = draw(st.integers(p + 4, 20))
    n_free = p - 1 if intercept else p
    policy = CandidatePolicy(
        max_size=draw(st.one_of(st.none(), st.integers(1, n_free))),
        include_empty=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, p))
    if kind == "ill-scaled":
        X *= 10.0 ** rng.uniform(-4.0, 4.0, p)
    elif kind == "collinear":
        b = 1e6 * X[:, -copies - 1] + X[:, -copies]
        X[:, -copies:] = b[:, None] + 1e-6 * rng.standard_normal((n, copies))
    if intercept:
        X[:, 0] = 1.0
    data = Dataset(X, rng.standard_normal(n),
                   tuple(f"x{j}" for j in range(1, p + 1)),
                   intercept_policy=INTERCEPT_FORCED if intercept
                   else INTERCEPT_NONE)
    return data, policy


@settings(max_examples=80, deadline=None, derandomize=True)
@given(basis_designs())
def test_prefix_tree_bases_match_per_model_qr_oracle(case):
    # a model below the top admitted size stores one unit direction:
    # orthogonal to its own columns and inside the span of its superset
    # parent's, so it is that parent's complement basis plus one row; a root
    # stores its complement basis
    data, policy = case
    try:
        models, blocks = pair_oracle.complement_bases(data, policy)
    except errors.RankDeficient as exc:
        with pytest.raises(errors.RankDeficient) as got:
            CandidateSet(data, policy)
        assert got.value.model == exc.model
        return
    cs = CandidateSet(data, policy)
    assert cs.models == models
    _, r = data._qr_of(data.full_model().indices)
    scale = np.linalg.norm(r)
    top = cs._levels[-1]
    assert len(cs._dirs) == top.models.start
    for lv in cs._levels[:-1]:
        for S, q, sup in zip(models[lv.models], cs._dirs[lv.models], lv.supers):
            parent = models[sup]
            assert len(set(parent.indices) - set(S.indices)) == 1
            assert len(parent) == len(S) + 1
            cols = [i - 1 for i in S.indices]
            assert abs(q @ q - 1.0) <= 1e-14
            assert np.abs(q @ r[:, cols]).max(initial=0.0) <= 1e-13 * scale
            assert np.linalg.norm(blocks[sup] @ q) <= 1e-13
    row = 0
    for S, want in zip(models[top.models], blocks[top.models]):
        got = cs._roots[row:row + len(want)]
        row += len(want)
        cols = [i - 1 for i in S.indices]
        assert np.abs(got @ got.T - np.eye(len(got))).max(initial=0.0) <= 1e-13
        assert np.abs(got @ r[:, cols]).max(initial=0.0) <= 1e-13 * scale
        assert np.abs(got.T @ got - want.T @ want).max() <= 1e-12
    assert row == len(cs._roots)


@pytest.mark.parametrize("intercept", [INTERCEPT_NONE, INTERCEPT_FORCED])
def test_candidate_build_makes_at_most_one_qr_call(rng, monkeypatch, intercept):
    X = rng.standard_normal((20, 6))
    X[:, 0] = 1.0
    data = Dataset(X, rng.standard_normal(20),
                   tuple(f"x{j}" for j in range(1, 7)), intercept_policy=intercept)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kw: calls.append(1) or qr(*args, **kw))
    CandidateSet(data, CandidatePolicy(include_empty=True))
    assert len(calls) <= 1


def test_candidate_build_caches_no_per_model_factors(small_data):
    candidate_set(small_data)
    n_space = [k for k in small_data._cache if isinstance(k[0], int)]
    assert n_space == [small_data.full_model().indices]


def test_penalties_computed_once_per_spec(small_data):
    cs = candidate_set(small_data)
    spec = CriterionSpec(Criterion.AICC, small_data.n)
    assert cs.penalties(spec) is cs.penalties(spec)


@pytest.mark.parametrize("kind", list(Criterion))
def test_penalties_evaluated_once_per_size(small_data, monkeypatch, kind):
    cs = candidate_set(small_data)
    spec = CriterionSpec(kind, small_data.n)
    expect = [spec.penalty(int(k)) for k in cs.free_sizes]
    sizes = []
    penalty = CriterionSpec.penalty
    monkeypatch.setattr(CriterionSpec, "penalty",
                        lambda self, size: sizes.append(size) or penalty(self, size))
    assert cs.penalties(spec).tolist() == expect
    assert sorted(sizes) == sorted(set(cs.free_sizes.tolist()))


def test_aicc_degenerate_only_for_sizes_that_occur(small_data):
    # at n=5 AICc is undefined for 4 free columns, the full model of p=4
    spec = CriterionSpec(Criterion.AICC, 5)
    with pytest.raises(errors.AICcDegenerate):
        candidate_set(small_data).penalties(spec)
    capped = candidate_set(small_data, CandidatePolicy(max_size=3))
    assert np.all(np.isfinite(capped.penalties(spec)))


class TestCandidateBudget:
    @staticmethod
    def _wide(rng, p, n=None):
        n = p + 6 if n is None else n
        return Dataset(rng.standard_normal((n, p)), rng.standard_normal(n),
                       tuple(f"x{j}" for j in range(1, p + 1)))

    def test_oversized_policy_refused_before_allocating(self, rng):
        data = self._wide(rng, 24)  # 2^24 - 1 models: minutes to enumerate
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(errors.InputError) as exc:
                candidate_set(data)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "16777215 models" in str(exc.value)
        assert "MiB" in str(exc.value)
        assert elapsed < 1.0
        assert peak < 2 ** 20

    def test_build_peak_is_within_the_estimate(self, rng):
        data = self._wide(rng, 14, n=100)
        # the candidate list is shared by every design of a layout
        criteria._candidate_list(data.forced_indices, data.free_indices,
                                 DEFAULT_POLICY)
        _, stored, estimate = criteria._build_bytes(data, DEFAULT_POLICY)
        tracemalloc.start()
        try:
            cs = CandidateSet(data, DEFAULT_POLICY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs._dirs.nbytes + cs._roots.nbytes == stored
        assert peak <= estimate <= 1.25 * peak

    # an uncapped build over 18 free columns (262,143 models) traces a peak
    # of about 248 MiB against its estimate of 250 MiB; 19 would need 545
    @pytest.mark.parametrize("n_free, refused", [(18, False), (19, True)])
    def test_uncapped_search_refused_from_19_free_columns(self, rng, n_free,
                                                           refused):
        data = self._wide(rng, n_free)
        if refused:
            with pytest.raises(errors.InputError, match="MiB"):
                criteria._check_budget(data, DEFAULT_POLICY)
        else:
            criteria._check_budget(data, DEFAULT_POLICY)

    def test_capped_policy_on_the_same_design_is_built(self, rng):
        data = self._wide(rng, 24)
        cs = candidate_set(data, CandidatePolicy(max_size=2))
        assert len(cs) == 24 + 24 * 23 // 2

    def test_bitmask_width_refused(self, rng):
        data = self._wide(rng, 63, n=70)
        with pytest.raises(errors.InputError, match="bitmask"):
            candidate_set(data, CandidatePolicy(max_size=1))
