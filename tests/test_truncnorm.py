import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import norm

from subsetci import Dataset, IndexSet, errors, truncnorm
from subsetci.criteria import Criterion, CriterionSpec
from subsetci.harness import SimulationConfig, simulate_coverage
from subsetci.inference import InferenceTarget, SigmaSpec, interval_table, pivot_value
from subsetci.intervals import FULL_LINE, interval_union
from subsetci.truncnorm import (
    CDF_TOL, PieceTable, TruncatedNormalSpec, invert_mean, truncated_cdf)
from conftest import piece_rows, random_dataset
from pair_oracle import log_normal_measure, normal_measure

# working precision of the mpmath oracles, scoped to each oracle call so that
# no module changes the process-wide setting for another
DPS = 50
INF = math.inf

BATCH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@mpmath.workdps(DPS)
def hp_measure(lo, hi, mu, lam) -> float:
    """High-precision normal interval mass (the oracle)."""
    a = (mpmath.mpf(lo) - mu) / lam if math.isfinite(lo) else mpmath.mpf("-inf")
    b = (mpmath.mpf(hi) - mu) / lam if math.isfinite(hi) else mpmath.mpf("+inf")
    return float(mpmath.ncdf(b) - mpmath.ncdf(a))


@mpmath.workdps(DPS)
def hp_truncated_cdf(x, mu, lam, region) -> float:
    num = mpmath.mpf(0)
    den = mpmath.mpf(0)
    for lo, hi in region:
        a = (mpmath.mpf(lo) - mu) / lam if math.isfinite(lo) else mpmath.mpf("-inf")
        b = (mpmath.mpf(hi) - mu) / lam if math.isfinite(hi) else mpmath.mpf("+inf")
        mass = mpmath.ncdf(b) - mpmath.ncdf(a)
        den += mass
        if lo < x:
            bx = (mpmath.mpf(min(hi, x)) - mu) / lam
            num += mpmath.ncdf(bx) - mpmath.ncdf(a)
    return float(num / den)


class TestNormalMeasure:
    def test_total_mass(self):
        assert normal_measure((-INF, INF), 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_half_line_above_mean(self):
        assert normal_measure((3.5, INF), 3.5, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_degenerate_interval_is_zero(self):
        assert normal_measure((1.0, 1.0), 0.0, 1.0) == 0.0
        assert normal_measure((2.0, 1.0), 0.0, 1.0) == 0.0

    def test_far_tail_against_oracle(self):
        got = normal_measure((5.0, 6.0), 0.0, 1.0)
        assert got == pytest.approx(hp_measure(5.0, 6.0, 0.0, 1.0), rel=1e-12)

    def test_scaled_far_tail(self):
        mu, lam = 2.0, 3.0
        got = normal_measure((mu + 5 * lam, mu + 6 * lam), mu, lam)
        expect = hp_measure(mu + 5 * lam, mu + 6 * lam, mu, lam)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_extreme_tail_stays_finite_in_log_space(self):
        lv = log_normal_measure((40.0, 41.0), 0.0, 1.0)
        assert -900 < lv < -700
        # oracle via the mirrored lower tail, where mpmath keeps precision
        with mpmath.workdps(DPS):
            expect = float(mpmath.log(mpmath.ncdf(-40) - mpmath.ncdf(-41)))
        assert lv == pytest.approx(expect, rel=1e-12)

    def test_random_intervals_against_oracle(self, rng):
        for _ in range(200):
            mu = float(rng.normal(scale=3))
            lam = float(rng.uniform(0.1, 5))
            a = float(rng.normal(scale=8))
            b = a + float(rng.uniform(0.01, 10))
            got = normal_measure((a, b), mu, lam)
            assert got == pytest.approx(hp_measure(a, b, mu, lam), rel=1e-12)


class TestTruncatedCdf:
    def test_no_truncation_matches_standard_normal(self, rng):
        spec = TruncatedNormalSpec(mu=1.0, lam=2.0, region=FULL_LINE)
        for x in rng.normal(scale=4, size=25):
            got = truncated_cdf(float(x), spec)
            assert got == pytest.approx(norm.cdf((x - 1.0) / 2.0), rel=1e-12,
                                        abs=1e-300)

    def test_symmetric_truncation_midpoint(self):
        spec = TruncatedNormalSpec(mu=0.0, lam=1.0,
                                   region=interval_union([(-1.0, 1.0)]))
        assert truncated_cdf(0.0, spec) == pytest.approx(0.5, rel=1e-13)

    def test_two_sided_region_against_oracle(self):
        region = interval_union([(-INF, -1.0), (1.0, INF)])
        spec = TruncatedNormalSpec(mu=0.0, lam=1.0, region=region)
        got = truncated_cdf(2.0, spec)
        assert got == pytest.approx(
            hp_truncated_cdf(2.0, 0.0, 1.0, region.intervals), rel=1e-10)

    def test_pinned_outside_region(self):
        region = interval_union([(0.0, 1.0)])
        spec = TruncatedNormalSpec(mu=0.0, lam=1.0, region=region)
        assert truncated_cdf(-5.0, spec) == 0.0
        assert truncated_cdf(5.0, spec) == 1.0

    def test_constant_across_gaps(self):
        region = interval_union([(-2.0, -1.0), (1.0, 2.0)])
        spec = TruncatedNormalSpec(mu=0.0, lam=1.0, region=region)
        assert truncated_cdf(-0.5, spec) == truncated_cdf(0.5, spec)
        assert truncated_cdf(-0.99, spec) == pytest.approx(
            truncated_cdf(0.99, spec), rel=1e-12)

    def test_monotone_in_x(self, rng):
        region = interval_union([(-3.0, -1.0), (0.5, 2.0), (4.0, INF)])
        spec = TruncatedNormalSpec(mu=1.0, lam=1.5, region=region)
        xs = np.linspace(-4, 6, 101)
        vals = [truncated_cdf(float(x), spec) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] <= 1.0

    def test_strictly_decreasing_in_mu(self):
        region = interval_union([(-2.0, -0.5), (1.0, 3.0)])
        x = 1.5
        mus = np.linspace(-3, 4, 40)
        vals = [truncated_cdf(x, TruncatedNormalSpec(m, 1.0, region))
                for m in mus]
        diffs = np.diff(vals)
        assert np.all(diffs < 0)

    def test_far_mean_tail_only_regions(self):
        # region entirely 10+ sigma from the mean
        region = interval_union([(10.0, 11.0), (12.0, 13.0)])
        spec = TruncatedNormalSpec(mu=0.0, lam=1.0, region=region)
        got = truncated_cdf(12.5, spec)
        expect = hp_truncated_cdf(12.5, 0.0, 1.0, region.intervals)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_normalization_at_region_edges(self):
        region = interval_union([(-2.0, -1.0), (1.0, 2.0)])
        spec = TruncatedNormalSpec(mu=0.3, lam=0.7, region=region)
        assert truncated_cdf(region.intervals[0][0], spec) == 0.0
        assert truncated_cdf(region.intervals[-1][1], spec) == 1.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(12345)
        region = interval_union([(-1.5, 0.0), (0.8, 2.5)])
        mu, lam = 0.4, 1.1
        draws = mu + lam * rng.standard_normal(4_000_000)
        keep = ((draws > -1.5) & (draws < 0.0)) | ((draws > 0.8) & (draws < 2.5))
        kept = draws[keep]
        assert kept.size > 1_000_000
        spec = TruncatedNormalSpec(mu=mu, lam=lam, region=region)
        for x in (-0.7, 0.5, 1.7):
            emp = float(np.mean(kept <= x))
            se = math.sqrt(emp * (1 - emp) / kept.size)
            assert abs(truncated_cdf(x, spec) - emp) <= 3 * se + 1e-12


class TestInvertMean:
    def test_untruncated_recovers_classical_endpoints(self):
        x, lam, alpha = 2.3, 1.7, 0.05
        z = norm.ppf(1 - alpha / 2)
        lo = invert_mean(1 - alpha / 2, x, lam, FULL_LINE)
        hi = invert_mean(alpha / 2, x, lam, FULL_LINE)
        assert lo == pytest.approx(x - z * lam, abs=1e-7 * lam)
        assert hi == pytest.approx(x + z * lam, abs=1e-7 * lam)

    def test_symmetric_region_median(self):
        region = interval_union([(-2.0, 2.0)])
        mu = invert_mean(0.5, 0.0, 1.0, region)
        assert mu == pytest.approx(0.0, abs=1e-7)

    def test_round_trip_random_specs(self, rng):
        for _ in range(60):
            pieces = []
            lo = float(rng.normal(scale=3))
            for _ in range(int(rng.integers(1, 4))):
                hi = lo + float(rng.uniform(0.2, 3))
                pieces.append((lo, hi))
                lo = hi + float(rng.uniform(0.2, 3))
            if rng.random() < 0.5:
                pieces.append((lo, INF))
            region = interval_union(pieces)
            lam = float(rng.uniform(0.3, 2.5))
            # pick an interior observation point
            plo, phi = pieces[int(rng.integers(0, len(pieces)))]
            if math.isinf(phi):
                x = plo + lam
            else:
                x = 0.5 * (plo + phi)
            target = float(rng.uniform(0.05, 0.95))
            mu = invert_mean(target, x, lam, region)
            spec = TruncatedNormalSpec(mu=mu, lam=lam, region=region)
            assert truncated_cdf(x, spec) == pytest.approx(target, abs=1e-8)

    def test_observation_must_be_interior(self):
        with pytest.raises(errors.ObservationOutsideRegion):
            invert_mean(0.5, 5.0, 1.0, interval_union([(-1.0, 1.0)]))

    def test_target_domain(self):
        with pytest.raises(errors.InputError):
            invert_mean(0.0, 0.0, 1.0, FULL_LINE)
        with pytest.raises(errors.InputError):
            invert_mean(1.5, 0.0, 1.0, FULL_LINE)

    def test_deep_truncation_still_inverts(self):
        # observation in a narrow far piece; mean must wander far to hit tails
        region = interval_union([(-0.5, 0.5), (8.0, 9.0)])
        x = 8.5
        lam = 1.0
        for target in (0.025, 0.5, 0.975):
            mu = invert_mean(target, x, lam, region)
            spec = TruncatedNormalSpec(mu=mu, lam=lam, region=region)
            assert truncated_cdf(x, spec) == pytest.approx(target, abs=1e-8)


def test_spec_validation():
    with pytest.raises(errors.InputError):
        TruncatedNormalSpec(mu=0.0, lam=0.0, region=FULL_LINE)
    from subsetci.intervals import EMPTY
    with pytest.raises(errors.InputError):
        TruncatedNormalSpec(mu=0.0, lam=1.0, region=EMPTY)


@st.composite
def problems(draw):
    """(target, x, lam, region): 1-4 pieces, the last possibly unbounded,
    and an observation interior to a random piece."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pieces = []
    lo = float(rng.normal(scale=3))
    for _ in range(int(rng.integers(1, 5))):
        hi = lo + float(rng.uniform(0.05, 3))
        pieces.append((lo, hi))
        lo = hi + float(rng.uniform(0.05, 3))
    if rng.random() < 0.3:
        pieces[-1] = (pieces[-1][0], INF)
    plo, phi = pieces[int(rng.integers(0, len(pieces)))]
    x = plo + float(rng.uniform(0.01, 0.99)) * (min(phi, plo + 3.0) - plo)
    lam = float(rng.uniform(0.05, 4.0))
    target = float(rng.uniform(0.01, 0.99))
    return target, x, lam, interval_union(pieces)


@BATCH_SETTINGS
@given(st.lists(problems(), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_batch_elements_equal_single_calls(batch, shuffle):
    """Each problem of a table inversion is bit-for-bit a one-problem call,
    whatever order the table's rows are asked in and the padding other rows
    force; a problem the table reports as infinite is one the scalar call
    refuses."""
    order = list(range(len(batch)))
    shuffle.shuffle(order)
    table = PieceTable(np.array([b[1] for b in batch]), np.array([b[2] for b in batch]),
                       *piece_rows([b[3] for b in batch]))
    targets, xs, lams, regions = zip(*[batch[i] for i in order])
    mus, status = table.invert(np.array(targets), np.array(order))
    assert np.array_equal(np.isfinite(mus), status == truncnorm._SOLVED)
    solved = [j for j in range(len(order)) if np.isfinite(mus[j])]
    specs = [TruncatedNormalSpec(mu=float(mus[j]), lam=lams[j], region=regions[j])
             for j in solved]
    cdfs = PieceTable(np.array([xs[j] for j in solved]),
                      np.array([lams[j] for j in solved]),
                      *piece_rows([regions[j] for j in solved])).cdf(mus[solved])
    for j in range(len(order)):
        if j not in solved:
            with pytest.raises((errors.BracketFailure, errors.RegionMassUnderflow)):
                invert_mean(targets[j], xs[j], lams[j], regions[j])
            continue
        assert mus[j] == invert_mean(targets[j], xs[j], lams[j], regions[j])
        cdf = cdfs[solved.index(j)]
        assert cdf == truncated_cdf(xs[j], specs[solved.index(j)])
        assert cdf == pytest.approx(targets[j], abs=1e-10)


@BATCH_SETTINGS
@given(problems(), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
       st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_cdf_increases_in_x_and_decreases_in_mu(problem, mu1, mu2, x1, x2):
    _, _, lam, region = problem
    mu1, mu2 = sorted((mu1, mu2))
    x1, x2 = sorted((x1, x2))
    table = PieceTable(np.array([x1, x2, x1, x2]), np.full(4, lam), *piece_rows([region] * 4))
    f = table.cdf(np.array([mu1, mu1, mu2, mu2]))
    assert np.all((0.0 <= f) & (f <= 1.0))
    # rounding in log space allows ulp-sized reversals only
    slack = 1e-12
    assert f[0] <= f[1] + slack and f[2] <= f[3] + slack
    assert f[0] >= f[2] - slack and f[1] >= f[3] - slack


class TestBatchFailureIsolation:
    # a standard deviation far below the resolution of the mean pins the
    # CDF at 1/2: no finite bracket reaches a target away from the median
    PINNED = (1.5, 1e-300, interval_union([(1.0, 2.0)]))

    def test_pinned_element_gives_infinite_endpoint_only(self):
        # both limits of two rows, as ``interval_table`` asks for them
        region = interval_union([(-1.0, 0.5), (1.0, 4.0)])
        x, lam = 2.0, 0.8
        table = PieceTable(np.array([x, self.PINNED[0]]),
                           np.array([lam, self.PINNED[1]]),
                           *piece_rows([region, self.PINNED[2]]))
        mus, status = table.invert(np.array([0.975, 0.975, 0.025, 0.025]),
                                   np.array([0, 1, 0, 1]))
        assert mus[1] == -INF and mus[3] == INF
        assert status.tolist() == [truncnorm._SOLVED, truncnorm._BELOW,
                                   truncnorm._SOLVED, truncnorm._ABOVE]
        assert mus[0] == invert_mean(0.975, x, lam, region)
        assert mus[2] == invert_mean(0.025, x, lam, region)

    def test_scalar_call_still_raises(self):
        with pytest.raises(errors.BracketFailure):
            invert_mean(0.975, *self.PINNED)
        with pytest.raises(errors.BracketFailure):
            invert_mean(0.025, *self.PINNED)

    def test_batch_input_validation(self):
        # interval_table refuses an observation outside its target's region
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 2))
        data = Dataset(X, X @ np.array([1.0, 2.0]) + rng.standard_normal(12),
                       ("a", "b"))
        etas = X.T / np.sum(X * X, axis=0)[:, None]
        x = float(etas[1] @ data.y)
        with pytest.raises(errors.ObservationOutsideRegion):
            interval_table(data, IndexSet((1, 2)), etas,
                           piece_rows([FULL_LINE, interval_union([(x + 1.0, x + 2.0)])]),
                           [SigmaSpec.known(1.0)], 0.05, np.zeros(2))


class TestRegionMassUnderflow:
    # 1e155 standard deviations from the mean the log mass overflows
    FAR = TruncatedNormalSpec(mu=0.0, lam=1.0,
                              region=interval_union([(1e155, 1e156)]))
    # one scale away from x, the ends of a region far narrower than the
    # scale standardize to the same number, so the region has no mass
    NARROW = (2.0, 1e300, interval_union([(1.0, 3.0)]))

    def test_truncated_cdf_raises(self):
        with pytest.raises(errors.RegionMassUnderflow):
            truncated_cdf(1.5e155, self.FAR)

    def test_batched_truncated_cdf_raises_for_any_element(self):
        table = PieceTable(np.array([0.0, 1.5e155]), np.array([1.0, self.FAR.lam]),
                           *piece_rows([FULL_LINE, self.FAR.region]))
        with pytest.raises(errors.RegionMassUnderflow):
            table.cdf(np.array([0.0, self.FAR.mu]))

    @pytest.mark.parametrize("mu", [INF, -INF])
    def test_infinite_mean_underflows_on_any_region(self, mu):
        # an infinite piece end minus an infinite mean standardizes to NaN,
        # not to a warning: unbounded regions carry no mass there, as a
        # bounded one carries none
        for region in (FULL_LINE, interval_union([(-INF, 0.5), (1.0, INF)]),
                       interval_union([(0.0, 0.5)])):
            with pytest.raises(errors.RegionMassUnderflow):
                truncated_cdf(0.3, TruncatedNormalSpec(mu, 1.0, region))
        # one candidate model: the selection event is the whole line
        data = random_dataset(np.random.default_rng(3), n=15, p=1,
                              signal=np.array([2.0]))
        with pytest.raises(errors.RegionMassUnderflow):
            pivot_value(data, None, IndexSet((1,)), InferenceTarget.coefficient(1),
                        mu, SigmaSpec.known(1.0), CriterionSpec(Criterion.AIC, 15))

    def test_scalar_invert_mean_raises(self):
        with pytest.raises(errors.RegionMassUnderflow):
            invert_mean(0.975, *self.NARROW)
        with pytest.raises(errors.RegionMassUnderflow):
            invert_mean(0.025, *self.NARROW)

    def test_batch_gives_infinite_endpoint_for_that_element_only(self):
        region = interval_union([(-1.0, 0.5), (1.0, 4.0)])
        x, lam = 2.0, 0.8
        x_bad, lam_bad, region_bad = self.NARROW
        table = PieceTable(np.array([x, x_bad]), np.array([lam, lam_bad]),
                           *piece_rows([region, region_bad]))
        mus, status = table.invert(np.array([0.975, 0.975, 0.025, 0.025]),
                                   np.array([0, 1, 0, 1]))
        assert mus[1] == -INF and mus[3] == INF
        assert status[1] == status[3] == truncnorm._UNDERFLOW
        assert mus[0] == invert_mean(0.975, x, lam, region)
        assert mus[2] == invert_mean(0.025, x, lam, region)



class TestMasslessPiece:
    # the numerator piece (-3.49, X) lies about 1e300 scales below the mean,
    # past log_ndtr's range at both ends: it has no mass, where the
    # same-side formula alone gives NaN
    X = -1.3384634095190355
    SPEC = TruncatedNormalSpec(0.21588902, 1.1826252361716263e-300,
                               interval_union([(-3.4859702215064394,
                                                1.4362109650801878)]))

    def test_truncated_cdf_is_zero(self):
        assert truncated_cdf(self.X, self.SPEC) == 0.0

    def test_table_row_is_zero_and_its_limits_fail_alone(self):
        region = interval_union([(-1.0, 0.5), (1.0, 4.0)])
        x, lam = 2.0, 0.8
        table = PieceTable(np.array([x, self.X]), np.array([lam, self.SPEC.lam]),
                           *piece_rows([region, self.SPEC.region]))
        f = table.cdf(np.array([1.0, self.SPEC.mu]))
        assert f[1] == 0.0
        assert f[0] == truncated_cdf(x, TruncatedNormalSpec(1.0, lam, region))
        logf, underflow = table.log_cdf(np.array([1.0, self.SPEC.mu]))
        assert logf[1] == -INF and not underflow.any()
        mus, status = table.invert(np.array([0.975, 0.975, 0.025, 0.025]),
                                   np.array([0, 1, 0, 1]))
        assert mus[1] == -INF and mus[3] == INF
        assert status.tolist() == [truncnorm._SOLVED, truncnorm._BELOW,
                                   truncnorm._SOLVED, truncnorm._ABOVE]
        assert mus[0] == invert_mean(0.975, x, lam, region)
        assert mus[2] == invert_mean(0.025, x, lam, region)

@mpmath.workdps(DPS)
def hp_upper_tail_cdf(x, mu, lam, lo, hi):
    """Truncated CDF over one interval from upper-tail masses, exact far
    from the mean, where ``ncdf`` differences cancel."""
    def upper(v):
        return mpmath.erfc((mpmath.mpf(v) - mu) / (lam * mpmath.sqrt(2))) / 2
    return (upper(lo) - upper(x)) / (upper(lo) - upper(hi))


class TestRootAtCdfRounding:
    """Roots where one ulp of the mean, or the rounding of huge log masses,
    moves the CDF by more than ``CDF_TOL``: the bracket shrinks to rounding
    while still straddling the root, and its better end is returned if its
    CDF is within ``STALLED_CDF_TOL`` of the target."""

    def test_one_ulp_of_the_mean_exceeds_the_tolerance(self):
        args = (0.975, 1e6 + 0.5, 0.05, interval_union([(1e6, 1e6 + 1)]))
        mu = invert_mean(*args)
        with mpmath.workdps(DPS):
            root = mpmath.findroot(
                lambda m: hp_upper_tail_cdf(1e6 + 0.5, m, 0.05, 1e6, 1e6 + 1)
                - mpmath.mpf(0.975), mu)
        assert abs(mu - float(root)) <= math.ulp(mu)
        mus, _ = PieceTable(np.array([args[1]]), np.array([args[2]]),
                            *args[3].as_row()).invert(np.array([args[0]]), np.array([0]))
        assert mus[0] == mu

    def test_root_thousands_of_scales_away(self):
        # the root lies near mu = -5000, where log masses are about -8e5
        target, x, lam = 0.8638524125458623, -2.3319759408218856, 3.8310297261403004
        lo, hi = -2.3377685884745807, -2.052799590599084
        mu = invert_mean(target, x, lam, interval_union([(lo, hi)]))
        assert -6000.0 < mu < -4000.0
        assert abs(float(hp_upper_tail_cdf(x, mu, lam, lo, hi)) - target) <= 1e-9

    def test_stall_outside_the_contract_gives_no_root(self):
        # both roots lie 1e5 to 1e7 scales away, where the rounding of the
        # log masses moves the CDF by up to 6e-3; no end of the stalled
        # bracket is within 1e-8 of its target, so neither is a root
        x = -1.38381703386
        region = interval_union([(-1.38381796450, -0.45317277506),
                                 (85.846, 88.155), (93.230, math.inf)])
        mu, status = PieceTable(np.array([x]), np.array([3.672]), *region.as_row()).invert(
            np.array([0.975, 0.025]), np.array([0, 0]))
        assert mu.tolist() == [-math.inf, math.inf]
        assert status.tolist() == [truncnorm._STALLED] * 2
        for target in (0.975, 0.025):
            with pytest.raises(errors.BracketFailure):
                invert_mean(target, x, 3.672, region)


def count_solver_work(monkeypatch):
    """Patch the solver to tally, across its calls, the endpoints it solves
    and the CDF evaluations it spends on them (truncated-CDF calls from
    elsewhere are not counted)."""
    tally = {"endpoints": 0, "evals": 0, "rounds": 0}
    invert, log_cdf = PieceTable.invert, PieceTable.log_cdf

    def counted_log_cdf(self, mu, rows=slice(None)):
        tally["evals"] += mu.shape[0]
        tally["rounds"] += 1
        return log_cdf(self, mu, rows)

    def counted_invert(self, target, rows):
        monkeypatch.setattr(PieceTable, "log_cdf", counted_log_cdf)
        try:
            return invert(self, target, rows)
        finally:
            tally["endpoints"] += target.shape[0]
            monkeypatch.setattr(PieceTable, "log_cdf", log_cdf)

    monkeypatch.setattr(PieceTable, "invert", counted_invert)
    return tally


class TestSolverWork:
    def test_untruncated_region_solves_at_the_classical_endpoint(self, monkeypatch):
        # the probit residual is exactly linear in the mean without
        # truncation, so the warm start is the root: one evaluation per row
        tally = count_solver_work(monkeypatch)
        targets = np.array([0.975, 0.025, 1e-6, 1 - 1e-6, 0.5])
        xs = np.array([2.3, 2.3, -1.0, 40.0, 0.0])
        lams = np.array([1.7, 1.7, 0.2, 3.0, 1e-3])
        mus, _ = PieceTable(xs, lams, *piece_rows([FULL_LINE] * 5)).invert(targets, np.arange(5))
        assert tally == {"endpoints": 5, "evals": 5, "rounds": 1}
        assert np.array_equal(mus, xs - lams * ndtri(targets))
        assert invert_mean(0.975, 2.3, 1.7, FULL_LINE) == mus[0]

    def test_table1_study_spends_at_most_six_evaluations_per_endpoint(
            self, monkeypatch):
        """A count, not a time: the same 2,400 endpoints on every run.

        Thirty replications, because the mean of a few is dominated by how
        many of them have step-shaped regions: over seeds 0-29 a 3-replication
        mean ranges from 1.8 to 7.4 evaluations, while 30-replication means
        over seeds 0-11 stay within 4.3-5.4."""
        tally = count_solver_work(monkeypatch)
        p = 10
        config = SimulationConfig(
            n=50, p=p, beta=(1.0, 2.0, 3.0) + (0.0,) * (p - 3), rho=0.5,
            sigma=1.0, reps=30, alpha=0.05, criterion=Criterion.AIC,
            sigma_strategies=tuple(SigmaSpec.parse(s) for s in (
                "known:1.0", "mse-aic", "mse-full", "external:1.1")),
            n_new_points=10, master_seed=11)
        report = simulate_coverage(config)
        assert report.reps_completed == 30
        assert tally["endpoints"] == 30 * 10 * 4 * 2
        assert tally["evals"] / tally["endpoints"] <= 6.0


@st.composite
def hard_problems(draw):
    """(target, x, lam, region): unions with pieces up to 30 scales apart,
    the observation often a fraction of a scale from a piece end (a
    step-shaped CDF in the mean), and targets as extreme as 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = float(rng.uniform(0.05, 4.0))
    pieces = []
    lo = float(rng.normal(scale=3))
    for _ in range(int(rng.integers(1, 5))):
        hi = lo + lam * float(rng.uniform(0.05, 3))
        pieces.append((lo, hi))
        gap = rng.uniform(0.05, 3) if rng.random() < 0.5 else rng.uniform(8, 30)
        lo = hi + lam * float(gap)
    if rng.random() < 0.3:
        pieces[-1] = (pieces[-1][0], INF)
    if rng.random() < 0.3:
        pieces[0] = (-INF, pieces[0][1])
    plo, phi = pieces[int(rng.integers(0, len(pieces)))]
    if math.isinf(plo) and math.isinf(phi):
        plo, phi = -lam, lam
    elif math.isinf(plo):
        plo = phi - 3 * lam
    elif math.isinf(phi):
        phi = plo + 3 * lam
    d = min(lam * float(rng.uniform(0.02, 0.2)), 0.5 * (phi - plo))
    x = (plo + d, phi - d, plo + float(rng.uniform(0.01, 0.99)) * (phi - plo))[
        int(rng.integers(0, 3))]
    target = (1e-6, 1 - 1e-6, 0.025, 0.975, float(rng.uniform(0.01, 0.99)))[
        int(rng.integers(0, 5))]
    return target, x, lam, interval_union(pieces)


@BATCH_SETTINGS
@given(hard_problems())
def test_inversion_matches_brentq_oracle(problem):
    """The root meets the CDF tolerance and agrees with a Brent root of
    ``truncated_cdf``: within 1e-8 relative, plus the width of the band
    where the CDF is within ``CDF_TOL`` of the target, which is what that
    tolerance leaves open where the CDF is flat in the mean."""
    target, x, lam, region = problem
    mu = invert_mean(target, x, lam, region)

    def gap(m):
        return truncated_cdf(x, TruncatedNormalSpec(m, lam, region)) - target

    assert abs(gap(mu)) <= CDF_TOL
    width = lam
    while not gap(mu - width) > 0.0 > gap(mu + width):
        width *= 2.0
    root = brentq(gap, mu - width, mu + width, xtol=1e-300,
                  rtol=4 * np.finfo(float).eps, maxiter=500)
    step = 1e-6 * max(abs(root), lam)
    slope = (gap(root - step) - gap(root + step)) / (2.0 * step)
    assert abs(mu - root) <= 1e-8 * max(abs(root), lam) + 2.0 * CDF_TOL / slope
