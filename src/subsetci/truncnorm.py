"""Truncated-normal CDF over interval unions and mean-parameter inversion.

The regions produced by selection geometry routinely sit many standard
deviations from the candidate mean during interval inversion, so all
probability mass is computed from standardized endpoints in log space:
same-side intervals use complementary-function differences via
``log(1 - exp(d))``, intervals straddling the mean use a pair of
half-``erf`` terms that cannot cancel.

Every evaluation is batched: a batch of problems, one region each, is padded
into a table of pieces, and the CDF, its inversion in the mean, and the
log-measure kernel under both work on whole arrays.  Each element's result
depends on that element alone, so a batch gives bit-for-bit the values of
one-element calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf, log_ndtr

from . import errors
from .intervals import IntervalUnion

_SQRT2 = math.sqrt(2.0)
_LOG_HALF = -math.log(2.0)
_EPS = np.finfo(float).eps

# The batched Chandrupatla iteration of ``invert_mean`` stops an element as
# soon as its CDF residual is at most this, or once its bracket has shrunk to
# the rounding of the mean while still straddling the root (where the CDF's
# own rounding exceeds this tolerance); tolerances live in CDF space
# because the CDF is flat in x across gaps of the region.  The stopping rule
# is well inside the 1e-8 accuracy contract so that inverted endpoints are
# also accurate in mean space at moderate densities.
CDF_TOL = 1e-11
MAX_ROOT_ITER = 200
MAX_EXPAND = 300

# per-element outcome of the batched root-finder
_SOLVED, _BELOW, _ABOVE, _UNDERFLOW, _STALLED = range(5)


def _log1mexp(d: np.ndarray) -> np.ndarray:
    """log(1 - exp(d)) for d <= 0, stable at both ends.

    Both branches are evaluated everywhere; callers silence floating-point
    warnings."""
    return np.where(d > _LOG_HALF,  # exp(d) close to 1
                    np.log(-np.expm1(d)), np.log1p(-np.exp(d)))


def _log_measure_std(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log P(a < Z < b) for standard normal Z, elementwise; -inf where b <= a.

    A piece below the mean is reflected, ``(a, b) -> (-b, -a)``, so that one
    upper-tail formula serves both tails; pieces straddling the mean use the
    two nonnegative half-``erf`` terms.  Both formulas are evaluated
    everywhere and the right one is selected, with no branch on the data.
    """
    with np.errstate(all="ignore"):
        reflect = b <= 0.0
        lo = np.where(reflect, -b, a)
        hi = np.where(reflect, -a, b)
        neg_lo = -lo
        la = log_ndtr(neg_lo)
        lb = log_ndtr(-hi)
        tail = la + _log1mexp(lb - la)
        # P = Phi(b) - Phi(a) = erf(b/sqrt2)/2 + erf(-a/sqrt2)/2; both terms
        # are nonnegative, so no cancellation near zero-width intervals.
        straddle = np.log(0.5 * (erf(hi / _SQRT2) + erf(neg_lo / _SQRT2)))
        return np.where(b > a, np.where(lo >= 0.0, tail, straddle), -np.inf)


def _logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    """log of the row sums of ``exp(logs)``; -inf for rows without mass.

    Columns are accumulated one at a time, so a row's sum does not depend
    on how many empty (-inf) columns pad it.  Callers silence floating-point
    warnings.
    """
    top = logs.max(axis=1)
    shift = np.where(np.isfinite(top), top, 0.0)
    terms = np.exp(logs - shift[:, None])
    total = terms[:, 0].copy()
    for j in range(1, logs.shape[1]):
        total += terms[:, j]
    return np.where(top == -np.inf, -np.inf, shift + np.log(total))


def log_normal_measure(interval: Tuple[float, float], mu: float, lam: float) -> float:
    """log of the normal(mu, lam^2) mass of the open interval ``(lo, hi)``."""
    lo, hi = interval
    if not hi > lo:
        return -math.inf
    if lam <= 0.0:
        raise errors.InputError("standard deviation must be positive")
    a = (lo - mu) / lam
    b = (hi - mu) / lam
    return float(_log_measure_std(np.array([a], dtype=float),
                                  np.array([b], dtype=float))[0])


def normal_measure(interval: Tuple[float, float], mu: float, lam: float) -> float:
    """Normal(mu, lam^2) probability of the open interval ``(lo, hi)``."""
    lv = log_normal_measure(interval, mu, lam)
    return math.exp(lv) if lv > -math.inf else 0.0


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(mu, lambda^2) truncated to ``region``."""

    mu: float
    lam: float
    region: IntervalUnion

    def __post_init__(self):
        if not self.lam > 0.0:
            raise errors.InputError("lambda must be positive")
        if self.region.is_empty:
            raise errors.InputError("truncation region must be nonempty")


class _PieceTable:
    """The CDF at fixed points, one problem per row, as a function of the mean.

    Row ``i`` holds the pieces of region ``i`` padded to the widest region
    with empty ``(0, 0)`` pieces, then the same pieces clipped at the
    evaluation point ``x[i]``; one standardized-measure evaluation over the
    whole table gives every row's denominator and numerator, and one
    row-wise log-sum-exp over both halves (as rows of width ``width``)
    reduces them.
    """

    def __init__(self, x: np.ndarray, lam: np.ndarray, regions: Sequence[IntervalUnion]):
        if not np.all(lam > 0.0):
            raise errors.InputError("lambda must be positive")
        width = max(len(r) for r in regions)
        lo = np.zeros((len(regions), width))
        hi = np.zeros((len(regions), width))
        for i, region in enumerate(regions):
            if region.is_empty:
                raise errors.InputError("truncation region must be nonempty")
            lo[i, :len(region)], hi[i, :len(region)] = zip(*region.intervals)
        self.width = width
        self.lam = lam
        self.lo = np.hstack([lo, lo])
        self.hi = np.hstack([hi, np.minimum(hi, x[:, None])])

    def cdf(self, mu: np.ndarray, rows=slice(None)) -> Tuple[np.ndarray, np.ndarray]:
        """(CDF at the mean ``mu``, region-mass underflow flag) for ``rows``."""
        lam = self.lam[rows][:, None]
        shift = mu[:, None]
        logs = _log_measure_std((self.lo[rows] - shift) / lam,
                                (self.hi[rows] - shift) / lam)
        with np.errstate(all="ignore"):
            sums = _logsumexp_rows(logs.reshape(-1, self.width))
            logden, lognum = sums[0::2], sums[1::2]
            underflow = ~(logden > -np.inf)  # -inf or nan
            return np.exp(np.minimum(lognum - logden, 0.0)), underflow


def truncated_cdf(x, spec):
    """CDF of the truncated normal at ``x``: mass of ``(-inf, x] ∩ R`` over mass of R.

    ``x`` may be a sequence and ``spec`` an equally long sequence of specs;
    the CDFs are then evaluated in one batch and returned as an array.
    Raises ``RegionMassUnderflow`` when a region carries no representable
    mass at its mean.
    """
    single = isinstance(spec, TruncatedNormalSpec)
    specs = [spec] if single else list(spec)
    xs = np.asarray(x, dtype=float).reshape(-1)
    if xs.shape[0] != len(specs):
        raise errors.DimensionMismatch(
            f"{xs.shape[0]} evaluation points for {len(specs)} specs")
    if not specs:
        return np.zeros(0)
    mu = np.array([s.mu for s in specs], dtype=float)
    lam = np.array([s.lam for s in specs], dtype=float)
    vals, underflow = _PieceTable(xs, lam, [s.region for s in specs]).cdf(mu)
    if underflow.any():
        i = int(np.flatnonzero(underflow)[0])
        raise errors.RegionMassUnderflow(
            f"region carries no representable mass at mu={mu[i]}")
    return float(vals[0]) if single else vals


def _solve(target: np.ndarray, x: np.ndarray, lam: np.ndarray,
           regions: Sequence[IntervalUnion]) -> Tuple[np.ndarray, np.ndarray]:
    """Means at which each row's truncated CDF of ``x`` equals its target.

    Returns ``(mu, status)``; ``mu`` is NaN where ``status`` is not
    ``_SOLVED``.  All rows run in lockstep, but each row's iterates depend
    on that row alone.
    """
    k = target.shape[0]
    table = _PieceTable(x, lam, regions)
    status = np.full(k, _SOLVED)
    every = np.arange(k)

    # geometric bracket expansion from x -+ lam, both sides at once; the CDF
    # decreases in the mean, so the low end needs F >= target, the high end
    # F <= target
    mu_lo, mu_hi = x - lam, x + lam
    step_lo, step_hi = lam.copy(), lam.copy()
    f, bad = table.cdf(np.concatenate([mu_lo, mu_hi]), np.concatenate([every, every]))
    f_lo, f_hi = f[:k], f[k:]
    status[bad[:k] | bad[k:]] = _UNDERFLOW
    for expansions in range(MAX_EXPAND + 1):
        grow_lo = np.flatnonzero((status == _SOLVED) & ~(f_lo >= target))
        grow_hi = np.flatnonzero((status == _SOLVED) & ~(f_hi <= target))
        if not (grow_lo.size or grow_hi.size):
            break
        if expansions == MAX_EXPAND:
            status[grow_lo] = _BELOW
            status[grow_hi] = _ABOVE
            break
        mu_lo[grow_lo] -= step_lo[grow_lo]
        step_lo[grow_lo] *= 2.0
        mu_hi[grow_hi] += step_hi[grow_hi]
        step_hi[grow_hi] *= 2.0
        rows = np.concatenate([grow_lo, grow_hi])
        f, bad = table.cdf(np.concatenate([mu_lo[grow_lo], mu_hi[grow_hi]]), rows)
        f_lo[grow_lo] = f[:grow_lo.size]
        f_hi[grow_hi] = f[grow_lo.size:]
        status[rows[bad]] = _UNDERFLOW

    # Chandrupatla's method on g = F - target (Chandrupatla 1997, "A new
    # hybrid quadratic/bisection algorithm for finding the zero of a
    # nonlinear function without using derivatives"): a is the newest
    # iterate, b the bracket end with the opposite sign, c the iterate
    # dropped from the bracket; inverse quadratic interpolation through the
    # three when it is safe, bisection otherwise.
    mu = np.full(k, np.nan)
    live = np.flatnonzero(status == _SOLVED)
    goal, scale = target[live], lam[live]
    a, fa = mu_lo[live], f_lo[live] - goal
    b, fb = mu_hi[live], f_hi[live] - goal
    t = np.full(live.size, 0.5)
    for _ in range(MAX_ROOT_ITER):
        if not live.size:
            break
        xt = a + t * (b - a)
        f, bad = table.cdf(xt, live)
        ft = f - goal
        hit = ~bad & (np.abs(ft) <= CDF_TOL)
        same = np.sign(ft) == np.sign(fa)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = xt, ft
        xm = np.where(np.abs(fa) < np.abs(fb), a, b)
        with np.errstate(all="ignore"):
            tlim = 2.0 * _EPS * (np.abs(xm) + scale) / np.abs(b - a)
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t_iqi = (fa / (fb - fa) * fc / (fb - fc)
                     + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        t = np.clip(np.where(iqi, t_iqi, 0.5), tlim, 1.0 - tlim)
        # a bracket narrower than rounding cannot shrink further; where the
        # CDF's own rounding exceeds CDF_TOL it still brackets the root, and
        # its end with the smaller residual is the root to working precision
        stalled = ~bad & ~hit & ~(tlim <= 0.5)
        ends = stalled & (np.sign(fa) * np.sign(fb) < 0.0)
        done = bad | hit | stalled
        if done.any():
            mu[live[hit]] = xt[hit]
            mu[live[ends]] = xm[ends]
            status[live[stalled & ~ends]] = _STALLED
            status[live[bad]] = _UNDERFLOW
            keep = ~done
            live, goal, scale, a, fa, b, fb, t = (
                v[keep] for v in (live, goal, scale, a, fa, b, fb, t))
    status[live] = _STALLED
    return mu, status


def invert_mean(target, x_obs, lam, region):
    """Mean ``mu`` at which the truncated CDF of ``x_obs`` equals ``target``.

    The CDF is strictly decreasing in the mean.  A geometric bracket
    expansion from ``x_obs ± lam`` finds a sign change, then Chandrupatla's
    safeguarded inverse-quadratic/bisection iteration narrows it until the
    CDF residual is at most ``CDF_TOL``, or until the bracket is as narrow as
    rounding allows; its end with the smaller residual is then the root.

    With one ``IntervalUnion`` as ``region`` the arguments are scalars, the
    result is a float, and a root that cannot be bracketed or whose region
    carries no representable mass raises ``BracketFailure`` or
    ``RegionMassUnderflow``.  With a sequence of regions, ``target``,
    ``x_obs`` and ``lam`` are equally long arrays and every element is solved
    in one lockstep batch; an element that fails gives an infinite endpoint
    instead of raising, ``-inf`` for a target above 1/2 (a lower confidence
    limit) and ``+inf`` otherwise, while the other elements are unaffected.
    Each element's result is bit-for-bit that of a one-element call.
    """
    single = isinstance(region, IntervalUnion)
    regions = [region] if single else list(region)
    target = np.asarray(target, dtype=float).reshape(-1)
    x_obs = np.asarray(x_obs, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if not target.shape[0] == x_obs.shape[0] == lam.shape[0] == len(regions):
        raise errors.DimensionMismatch(
            f"{target.shape[0]} targets, {x_obs.shape[0]} observations, "
            f"{lam.shape[0]} scales and {len(regions)} regions")
    if not len(regions):
        return np.zeros(0)
    out_of_range = np.flatnonzero(~((target > 0.0) & (target < 1.0)))
    if out_of_range.size:
        raise errors.InputError(
            f"target must be in (0,1), got {target[out_of_range[0]]}")
    for x, reg in zip(x_obs, regions):
        if not reg.contains(float(x)):
            raise errors.ObservationOutsideRegion(
                f"x={x} is not interior to the region {reg}")
    mu, status = _solve(target, x_obs, lam, regions)
    if not single:
        failed = status != _SOLVED
        mu[failed] = np.where(target[failed] > 0.5, -np.inf, np.inf)
        return mu
    code = int(status[0])
    if code == _BELOW:
        raise errors.BracketFailure(
            f"could not bracket target {target[0]} from below (CDF pinned)")
    if code == _ABOVE:
        raise errors.BracketFailure(
            f"could not bracket target {target[0]} from above (CDF pinned)")
    if code == _UNDERFLOW:
        raise errors.RegionMassUnderflow(
            "region carries no representable mass while inverting the mean")
    if code == _STALLED:
        raise errors.BracketFailure(
            "the root-finder failed to reach the CDF tolerance; "
            "the region may be corrupted")
    return float(mu[0])
