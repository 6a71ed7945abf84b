import math

import mpmath
import numpy as np
import pytest

from subsetci import Dataset, IndexSet, errors
from subsetci.criteria import (
    CandidatePolicy,
    Criterion,
    CriterionSpec,
    best_subset,
    candidate_set,
)

from conftest import random_dataset
from pair_oracle import penalty_ratio_sizes, residual_project

# working precision of the mpmath oracles, scoped to each use so that no
# module changes the process-wide setting for another
DPS = 40


def hp_exp(x) -> float:
    return float(mpmath.exp(mpmath.mpf(x)))


def score_all(kind, n, rss, p=5):
    """(candidate set, criterion scores) of a random n-by-p design at the
    candidate RSS values ``rss`` (a scalar is shared by every candidate)."""
    d = random_dataset(np.random.default_rng(n), n=n, p=p)
    cs = candidate_set(d)
    spec = CriterionSpec(kind, n)
    return cs, cs.score_rss(np.broadcast_to(np.asarray(rss, float), len(cs)), spec)


class TestCriterionScore:
    def test_direct_formula(self):
        cs, scores = score_all(Criterion.AIC, 50, 47.0)
        assert scores[cs.index_of(IndexSet((1, 2, 3)))] == pytest.approx(
            2 * 3 + 50 * math.log(47.0), rel=1e-14)

    def test_equal_rss_difference_is_twice_size_gap(self):
        cs, scores = score_all(Criterion.AIC, 40, 5.0)
        s1 = scores[cs.index_of(IndexSet((1, 2, 3, 4)))]
        s2 = scores[cs.index_of(IndexSet((1,)))]
        assert s1 - s2 == pytest.approx(2 * (4 - 1), rel=1e-12)

    def test_nonpositive_rss_rejected(self):
        rss = np.ones(31)
        rss[3] = 0.0
        with pytest.raises(errors.NonPositiveRSS) as exc:
            score_all(Criterion.AIC, 10, rss)
        assert exc.value.model == IndexSet((4,))

    def test_bic_uses_log_n(self):
        cs, scores = score_all(Criterion.BIC, 100, 3.0)
        assert scores[cs.index_of(IndexSet((1, 2)))] == pytest.approx(
            math.log(100) * 2 + 100 * math.log(3.0), rel=1e-14)

    def test_aicc_degenerate(self):
        spec = CriterionSpec(Criterion.AICC, 6)
        with pytest.raises(errors.AICcDegenerate):
            spec.penalty(5)
        with pytest.raises(errors.AICcDegenerate):
            score_all(Criterion.AICC, 6, 1.0)


class TestPenaltyRatio:
    def test_equal_sizes_give_one(self):
        for kind in Criterion:
            spec = CriterionSpec(kind, 30)
            assert penalty_ratio_sizes(2, 2, spec) == 1.0

    def test_aic_against_high_precision(self):
        spec = CriterionSpec(Criterion.AIC, 50)
        got = penalty_ratio_sizes(3, 4, spec)
        with mpmath.workdps(DPS):
            expect = hp_exp(mpmath.mpf(-2) / 50)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_bic_against_high_precision(self):
        spec = CriterionSpec(Criterion.BIC, 100)
        got = penalty_ratio_sizes(2, 5, spec)
        with mpmath.workdps(DPS):
            expect = hp_exp(mpmath.mpf(-3) * mpmath.log(100) / 100)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_aicc_against_high_precision(self):
        spec = CriterionSpec(Criterion.AICC, 30)
        got = penalty_ratio_sizes(3, 5, spec)
        with mpmath.workdps(DPS):
            expect = hp_exp(2 * (mpmath.mpf(3) / (30 - 3 - 1)
                                 - mpmath.mpf(5) / (30 - 5 - 1)))
        assert got == pytest.approx(expect, rel=1e-13)

    def test_score_difference_consistent_with_ratio(self, rng):
        # score(S1) < score(S2)  iff  rss2/rss1 > omega(S1, S2)
        for _ in range(1000):
            kind = rng.choice(list(Criterion))
            n = int(rng.integers(10, 200))
            spec = CriterionSpec(kind, n)
            k1 = int(rng.integers(1, min(8, n - 2)))
            k2 = int(rng.integers(1, min(8, n - 2)))
            rss1 = float(rng.uniform(0.01, 50.0))
            rss2 = float(rng.uniform(0.01, 50.0))
            s1 = spec.penalty(k1) + n * math.log(rss1)
            s2 = spec.penalty(k2) + n * math.log(rss2)
            if abs(s1 - s2) < 1e-9:
                continue
            ratio = rss2 / rss1
            omega = penalty_ratio_sizes(k1, k2, spec)
            assert (s1 < s2) == (ratio > omega)


class TestEnumeration:
    def test_all_nonempty_subsets(self, small_data):
        cands = candidate_set(small_data, CandidatePolicy()).models
        assert len(cands) == 2 ** small_data.p - 1
        assert cands[0] == IndexSet((1,))
        assert cands[-1] == small_data.full_model()

    def test_max_size_cap(self, small_data):
        cands = candidate_set(small_data, CandidatePolicy(max_size=1)).models
        assert len(cands) == small_data.p

    def test_include_empty(self, small_data):
        cands = candidate_set(small_data, CandidatePolicy(include_empty=True)).models
        assert cands[0] == IndexSet(())
        assert len(cands) == 2 ** small_data.p

    def test_forced_column_always_present(self, rng):
        X = np.column_stack([np.ones(12), rng.standard_normal((12, 3))])
        d = Dataset(X, rng.standard_normal(12), ("Intercept", "a", "b", "c"),
                    intercept_policy="forced_first_column")
        cands = candidate_set(d, CandidatePolicy()).models
        assert len(cands) == 2 ** 3 - 1
        assert all(1 in S for S in cands)


class TestBestSubset:
    def test_single_candidate(self, rng):
        d = random_dataset(rng, n=8, p=1, signal=np.array([1.0]))
        best, scored = best_subset(d, CriterionSpec(Criterion.AIC, 8))
        assert best == IndexSet((1,))
        assert len(scored) == 1

    def test_brute_force_rescoring_oracle(self, rng):
        # independent re-implementation: lstsq rss + inline formula
        d = random_dataset(rng, n=20, p=5,
                           signal=np.array([3.0, 0.0, 0.0, 0.0, 0.0]))
        spec = CriterionSpec(Criterion.AIC, 20)
        best, scored = best_subset(d, spec)

        import itertools
        oracle = {}
        for k in range(1, 6):
            for combo in itertools.combinations(range(1, 6), k):
                Xs = d.X[:, [c - 1 for c in combo]]
                resid = d.y - Xs @ np.linalg.lstsq(Xs, d.y, rcond=None)[0]
                r = float(resid @ resid)
                oracle[combo] = 2 * k + 20 * math.log(r)
        oracle_best = min(oracle, key=lambda c: (oracle[c], len(c), c))
        assert best.indices == oracle_best
        for sm in scored:
            assert sm.score == pytest.approx(oracle[sm.model.indices], rel=1e-9)

    def test_strong_single_column_dominates(self, rng):
        n, p = 30, 4
        X = np.linalg.qr(rng.standard_normal((n, p)))[0]  # orthonormal columns
        y = 50.0 * X[:, 1] + 0.01 * rng.standard_normal(n)
        d = Dataset(X, y, tuple(f"c{j}" for j in range(p)))
        best, _ = best_subset(d, CriterionSpec(Criterion.AIC, n))
        assert best == IndexSet((2,))

    def test_oracle_model_always_contained(self):
        # strong fixed signal: the chosen model must contain the true support
        rng = np.random.default_rng(7)
        n, p = 50, 6
        idx = np.arange(p)
        chol = np.linalg.cholesky(0.5 ** np.abs(idx[:, None] - idx[None, :]))
        X = rng.standard_normal((n, p)) @ chol.T
        beta = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
        spec = CriterionSpec(Criterion.AIC, n)
        base = Dataset(X, np.zeros(n), tuple(f"x{j}" for j in range(p)))
        for _ in range(50):
            y = X @ beta + rng.standard_normal(n)
            best, _ = best_subset(base.replace_y(y), spec)
            assert {1, 2, 3} <= set(best.indices)

    def test_tie_break_prefers_smaller_then_lexicographic(self):
        # symmetric design: scores for {1} and {2} are exactly equal
        X = np.vstack([np.eye(2), np.zeros((1, 2))])
        y = np.array([1.0, 1.0, 5.0])
        d = Dataset(X, y, ("a", "b"))
        best, scored = best_subset(d, CriterionSpec(Criterion.AIC, 3))
        s = {m.model.indices: m.score for m in scored}
        assert s[(1,)] == s[(2,)]
        assert best == IndexSet((1,))

    def test_interpolating_candidate_raises(self):
        X = np.vstack([np.eye(2), np.zeros((1, 2))])
        y = np.array([1.0, 2.0, 0.0])  # full model interpolates exactly
        d = Dataset(X, y, ("a", "b"))
        with pytest.raises(errors.NonPositiveRSS) as exc:
            best_subset(d, CriterionSpec(Criterion.AIC, 3))
        assert exc.value.model == IndexSet((1, 2))

    def test_enumeration_order_invariance(self, rng):
        # scoring through the batched engine must agree with per-model calls
        d = random_dataset(rng, n=18, p=4)
        spec = CriterionSpec(Criterion.BIC, 18)
        _, scored = best_subset(d, spec)
        for sm in scored:
            resid = residual_project(d, sm.model, d.y)
            assert sm.rss == pytest.approx(float(resid @ resid), rel=1e-10)

    def test_duplicate_information_column_penalized(self, rng):
        # a nearly redundant extra column never increases rss, but always
        # pays a strictly larger size penalty
        n = 40
        x1 = rng.standard_normal(n)
        x2 = x1 + 1e-6 * rng.standard_normal(n)
        X = np.column_stack([x1, x2])
        y = 2.0 * x1 + rng.standard_normal(n)
        d = Dataset(X, y, ("a", "b"))
        spec = CriterionSpec(Criterion.AIC, n)
        _, scored = best_subset(d, spec)
        rsses = {m.model.indices: m.rss for m in scored}
        assert rsses[(1, 2)] <= min(rsses[(1,)], rsses[(2,)]) + 1e-12
        assert spec.penalty(2) > spec.penalty(1)


def test_candidate_set_cached(small_data):
    a = candidate_set(small_data)
    b = candidate_set(small_data)
    assert a is b
    c = candidate_set(small_data, CandidatePolicy(max_size=2))
    assert c is not a
