"""The R-space candidate engine against direct n-space oracles.

Designs are drawn by hypothesis and cover a forced intercept, a capped model
size and the empty model.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import (
    CandidatePolicy,
    Criterion,
    CriterionSpec,
    best_subset,
    candidate_set,
)
from subsetci.geometry import (
    decompose,
    selection_event,
    selection_events,
    superset_lower_bound,
)
from subsetci.inference import InferenceTarget, eta_for_target
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
    aa, ab, bb = cs.gram(a, b)
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
@given(designs(), st.sampled_from(list(Criterion)), st.booleans())
def test_swept_region_equals_sequential_pair_intersection(case, criterion, skip):
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion)
    event = selection_event(data, dec, S_hat, spec, skip_supersets=skip,
                            policy=policy)
    want = pair_oracle.sequential_region(dec, data, S_hat, spec, skip, policy)
    _assert_same_region(event.region, want)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans())
def test_skipping_supersets_leaves_region_unchanged(case, criterion, prediction):
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion,
                                           prediction)
    on = selection_event(data, dec, S_hat, spec, skip_supersets=True,
                         policy=policy, keep_comparisons=False)
    off = selection_event(data, dec, S_hat, spec, skip_supersets=False,
                          policy=policy, keep_comparisons=False)
    assert on.region == off.region


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)))
def test_swept_region_equals_pair_intersection_off_span(case, criterion):
    # a direction outside the selected span gives downward parabolas too
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    dec = decompose(data.y, rng.standard_normal(data.n))
    event = selection_event(data, dec, S_hat, spec, skip_supersets=False,
                            policy=policy)
    want = pair_oracle.sequential_region(dec, data, S_hat, spec, False, policy)
    _assert_same_region(event.region, want)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.sampled_from(["coefficient", "prediction", "off-span"]))
def test_observed_statistic_lies_in_its_event(case, criterion, skip, direction):
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion,
                                           direction == "prediction")
    if direction == "off-span":
        dec = decompose(data.y, rng.standard_normal(data.n))
        skip = False
    event = selection_event(data, dec, S_hat, spec, skip_supersets=skip,
                            policy=policy, keep_comparisons=False)
    assert event.region.contains(dec.eta_dot_y)


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)))
def test_superset_lower_bound_matches_pair_oracle(case, criterion):
    data, policy, rng = case
    spec, S_hat, dec = _selected_direction(data, policy, rng, criterion)
    i = int(rng.choice(S_hat.indices))
    got = superset_lower_bound(dec, data, S_hat, i, spec, policy)
    want = pair_oracle.superset_lower_bound(dec, data, S_hat, i, spec, policy)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * dec.eta_norm2)


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


def _oracle_records(dec, data, S_hat, spec, skip, policy):
    """(competitor, per-pair set or None if skipped) in canonical order."""
    try:
        pair_oracle.require_eta_in_span(dec, data, S_hat)
        in_span = True
    except errors.EtaNotInSpan:
        in_span = False
    out = []
    for S in cs_models(data, policy):
        if S == S_hat:
            continue
        superset = S.issuperset(S_hat)
        if superset and skip:
            out.append((S, None))
        elif superset and in_span:
            out.append((S, pair_oracle.simplified_comparison(
                dec, data, S_hat, S, spec)))
        else:
            out.append((S, pair_oracle.comparison_feasible_set(
                dec, data, S_hat, S, spec)))
    return out


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.integers(1, 4))
def test_batched_events_match_single_calls_and_pair_oracle(case, criterion,
                                                           skip, count):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = _directions(data, S_hat, rng, count, off_span=not skip)
    events = selection_events(data, data.y, etas, S_hat, spec,
                              skip_supersets=skip, policy=policy,
                              keep_comparisons=False)
    assert len(events) == count
    for eta, event in zip(etas, events):
        dec = decompose(data.y, eta)
        assert event.selected == S_hat and event.comparisons == ()
        one = selection_event(data, dec, S_hat, spec, skip_supersets=skip,
                              policy=policy, keep_comparisons=False)
        _assert_same_region(event.region, one.region)
        _assert_same_region(event.region, pair_oracle.sequential_region(
            dec, data, S_hat, spec, skip, policy))


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.integers(1, 3))
def test_batched_comparison_records_match_single_calls_and_pair_oracle(
        case, criterion, skip, count):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    etas = _directions(data, S_hat, rng, count, off_span=not skip)
    events = selection_events(data, data.y, etas, S_hat, spec,
                              skip_supersets=skip, policy=policy)
    for eta, event in zip(etas, events):
        dec = decompose(data.y, eta)
        one = selection_event(data, dec, S_hat, spec, skip_supersets=skip,
                              policy=policy)
        want = _oracle_records(dec, data, S_hat, spec, skip, policy)
        assert len(event.comparisons) == len(one.comparisons) == len(want)
        for got, single, (competitor, oracle) in zip(event.comparisons,
                                                     one.comparisons, want):
            assert got.competitor == single.competitor == competitor
            assert got.skipped == single.skipped == (oracle is None)
            assert got.reason == single.reason
            if oracle is not None:
                _assert_same_region(got.region, single.region)
                _assert_same_region(got.region, oracle)


def _single_call_error(data, y, eta, S_hat, spec, skip, policy):
    try:
        selection_event(data, decompose(y, eta), S_hat, spec,
                        skip_supersets=skip, policy=policy)
    except errors.SubsetCIError as exc:
        return type(exc)
    return None


@KERNEL_SETTINGS
@given(designs(), st.sampled_from(list(Criterion)), st.booleans(),
       st.lists(st.sampled_from(["in-span", "off-span", "zero"]),
                min_size=1, max_size=4),
       st.booleans())
def test_first_failing_direction_decides_the_error(case, criterion, skip,
                                                   kinds, wrong_model):
    data, policy, rng = case
    spec, S_hat, _ = _selected_direction(data, policy, rng, criterion)
    if wrong_model:
        others = [S for S in cs_models(data, policy) if S != S_hat]
        assume(others)
        S_hat = others[int(rng.integers(len(others)))]
    etas = []
    for kind in kinds:
        if kind == "zero":
            etas.append(np.zeros(data.n))
        elif kind == "off-span":
            etas.append(rng.standard_normal(data.n))
        elif len(S_hat):
            etas.append(eta_for_target(data, S_hat, InferenceTarget.coefficient(
                int(rng.choice(S_hat.indices)))))
        else:
            etas.append(data.X[:, 0].copy())
    errs = [_single_call_error(data, data.y, eta, S_hat, spec, skip, policy)
            for eta in etas]
    first = next((e for e in errs if e is not None), None)
    if first is None:
        events = selection_events(data, data.y, np.array(etas), S_hat, spec,
                                  skip_supersets=skip, policy=policy)
        assert len(events) == len(etas)
    else:
        with pytest.raises(errors.SubsetCIError) as exc:
            selection_events(data, data.y, np.array(etas), S_hat, spec,
                             skip_supersets=skip, policy=policy)
        assert type(exc.value) is first


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
        data.thin_q(IndexSet((2, 3)))
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


def test_candidate_build_caches_no_per_model_factors(small_data):
    candidate_set(small_data)
    n_space = [k for k in small_data._cache if isinstance(k[0], int)]
    assert n_space == [small_data.full_model().indices]


def test_penalties_computed_once_per_spec(small_data):
    cs = candidate_set(small_data)
    spec = CriterionSpec(Criterion.AICC, small_data.n)
    assert cs.penalties(spec) is cs.penalties(spec)


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

    def test_capped_policy_on_the_same_design_is_built(self, rng):
        data = self._wide(rng, 24)
        cs = candidate_set(data, CandidatePolicy(max_size=2))
        assert len(cs) == 24 + 24 * 23 // 2

    def test_bitmask_width_refused(self, rng):
        data = self._wide(rng, 63, n=70)
        with pytest.raises(errors.InputError, match="bitmask"):
            candidate_set(data, CandidatePolicy(max_size=1))
