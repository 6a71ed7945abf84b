"""Truncated-normal CDF over interval unions and mean-parameter inversion.

The regions produced by selection geometry routinely sit many standard
deviations from the candidate mean during interval inversion, so all
probability mass is computed from standardized endpoints in log space:
same-side intervals use complementary-function differences via
``log(1 - exp(d))``, intervals straddling the mean use a pair of
half-``erf`` terms that cannot cancel.

Every evaluation is batched: a ``PieceTable`` pads a batch of problems, one
region each, into a table of pieces, and its CDF, its inversion in the mean,
and the log-measure kernel under both work on whole arrays.  The table's
kernel is the log CDF; ``cdf`` exponentiates it, and ``invert`` maps it to
the probit scale, where a region without truncation gives a residual exactly
linear in the mean.  Each row's result depends on that row alone, so a table
gives bit-for-bit the values of a one-row table; ``truncated_cdf`` and
``invert_mean`` are the one-problem forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf, log_ndtr, ndtr, ndtri, ndtri_exp

from . import errors
from .intervals import IntervalUnion

_SQRT2 = math.sqrt(2.0)
_LOG_HALF = -math.log(2.0)
_EPS = np.finfo(float).eps

# The batched root-finder of ``PieceTable.invert`` stops a problem as soon as
# its CDF residual is at most this, or once its bracket has shrunk to
# the rounding of the mean while still straddling the root (where the CDF's
# own rounding exceeds this tolerance); tolerances live in CDF space
# because the CDF is flat in x across gaps of the region.  The stopping rule
# is well inside the 1e-8 accuracy contract so that inverted endpoints are
# also accurate in mean space at moderate densities.
CDF_TOL = 1e-11
# A bracket stalled at the rounding of the mean gives a root only if its
# better end meets the 1e-8 contract; far in a tail, where the CDF's own
# rounding is coarser than that, the problem fails instead.
STALLED_CDF_TOL = 1e-8
MAX_ROOT_ITER = 200
MAX_EXPAND = 300

# per-problem outcome of ``PieceTable.invert``
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


class PieceTable:
    """The CDF at fixed points, one problem per row, as a function of the mean.

    Row ``i`` is the normal with scale ``lam[i]`` truncated to ``regions[i]``,
    its CDF taken at ``x[i]``.  The row holds the region's pieces padded to
    the widest region with empty ``(0, 0)`` pieces, then the same pieces
    clipped at ``x[i]``; one standardized-measure evaluation gives every
    row's denominator and numerator, and one row-wise log-sum-exp over both
    halves (as rows of width ``width``) reduces them.
    """

    def __init__(self, x: np.ndarray, lam: np.ndarray, regions: Sequence[IntervalUnion]):
        self.x = np.asarray(x, dtype=float)
        self.lam = np.asarray(lam, dtype=float)
        if not np.all(self.lam > 0.0):
            raise errors.InputError("lambda must be positive")
        width = max((len(r) for r in regions), default=1)
        lo = np.zeros((len(regions), width))
        hi = np.zeros((len(regions), width))
        for i, region in enumerate(regions):
            if region.is_empty:
                raise errors.InputError("truncation region must be nonempty")
            lo[i, :len(region)], hi[i, :len(region)] = zip(*region.intervals)
        self.width = width
        self.lo = np.hstack([lo, lo])
        self.hi = np.hstack([hi, np.minimum(hi, self.x[:, None])])

    def log_cdf(self, mu: np.ndarray, rows=slice(None)) -> Tuple[np.ndarray, np.ndarray]:
        """(log CDF at the mean ``mu``, region-mass underflow flag) for ``rows``."""
        lam = self.lam[rows][:, None]
        shift = mu[:, None]
        logs = _log_measure_std((self.lo[rows] - shift) / lam,
                                (self.hi[rows] - shift) / lam)
        with np.errstate(all="ignore"):
            sums = _logsumexp_rows(logs.reshape(-1, self.width))
            logden, lognum = sums[0::2], sums[1::2]
            underflow = ~(logden > -np.inf)  # -inf or nan
            return np.minimum(lognum - logden, 0.0), underflow

    def cdf(self, mu: np.ndarray) -> np.ndarray:
        """Every row's CDF at its mean ``mu[i]``.

        Raises ``RegionMassUnderflow`` when a row's region carries no
        representable mass at its mean.
        """
        logf, underflow = self.log_cdf(mu)
        if underflow.any():
            i = int(np.flatnonzero(underflow)[0])
            raise errors.RegionMassUnderflow(
                f"region carries no representable mass at mu={mu[i]}")
        return np.exp(logf)

    def invert(self, target: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Means at which the CDF of table row ``rows[i]`` equals ``target[i]``.

        The CDF decreases in the mean.  The root of the probit residual
        ``g(mu) = Phi^-1(F(mu)) - Phi^-1(target)``, exactly linear in the
        mean without truncation, is bracketed from the classical endpoint
        ``x - lam * Phi^-1(target)`` and narrowed until the CDF residual is
        at most ``CDF_TOL``, or until the bracket is as narrow as rounding
        allows and its better end is within ``STALLED_CDF_TOL`` of the target.
        Returns ``(mu, status)``; where the status is not ``_SOLVED``, ``mu``
        is ``-inf`` for a target above 1/2 (a lower confidence limit) and
        ``+inf`` otherwise.  All problems run in lockstep, but each one's
        iterates depend on that problem alone.  The caller checks that each
        target lies in (0, 1) and each observation inside its region.
        """
        k = target.shape[0]
        x, lam = self.x[rows], self.lam[rows]
        z = ndtri(target)
        status = np.full(k, _SOLVED)
        mu = np.full(k, np.nan)

        def probe(m, idx):
            """(probit residual g, CDF within CDF_TOL, underflow) of problems
            ``idx`` at means ``m``."""
            logf, bad = self.log_cdf(m, rows[idx])
            hit = ~bad & (np.abs(np.exp(logf) - target[idx]) <= CDF_TOL)
            return ndtri_exp(logf) - z[idx], hit, bad

        # start at the classical endpoint, the root for an untruncated region
        a = x - lam * z
        fa, hit, bad = probe(a, np.arange(k))
        mu[hit] = a[hit]
        status[bad] = _UNDERFLOW
        # step towards the root, first by 1.5 |g| scales (g falls by one per
        # scale without truncation), then doubling the step until g changes
        # sign; a is the last point with the start's sign, b the newest
        step = np.copysign(lam * np.clip(1.5 * np.abs(fa), 1e-3, 64.0), fa)
        b, fb = a.copy(), fa.copy()
        grow = np.flatnonzero(~hit & ~bad)
        for expansions in range(MAX_EXPAND + 1):
            grow = grow[np.sign(fb[grow]) == np.sign(fa[grow])]
            if not grow.size:
                break
            if expansions == MAX_EXPAND:
                status[grow] = np.where(fa[grow] < 0.0, _BELOW, _ABOVE)
                break
            a[grow], fa[grow] = b[grow], fb[grow]
            b[grow] += step[grow]
            step[grow] *= 2.0
            fb[grow], hit, bad = probe(b[grow], grow)
            mu[grow[hit]] = b[grow[hit]]
            status[grow[bad]] = _UNDERFLOW
            grow = grow[~hit & ~bad]

        # Chandrupatla's method on g (Chandrupatla 1997, "A new hybrid
        # quadratic/bisection algorithm for finding the zero of a nonlinear
        # function without using derivatives"), from a regula falsi point: a
        # is the newest iterate, b the bracket end with the opposite sign, c
        # the iterate dropped from the bracket; inverse quadratic
        # interpolation through the three when it is safe, bisection
        # otherwise.
        live = np.flatnonzero((status == _SOLVED) & np.isnan(mu))
        scale = lam[live]
        a, fa, b, fb = a[live], fa[live], b[live], fb[live]
        with np.errstate(all="ignore"):
            t = fa / (fa - fb)
        t = np.where((t > 0.0) & (t < 1.0), t, 0.5)  # no secant past an infinite g
        for _ in range(MAX_ROOT_ITER):
            if not live.size:
                break
            xt = a + t * (b - a)
            ft, hit, bad = probe(xt, live)
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
            # a bracket narrower than rounding cannot shrink further; where
            # the CDF's own rounding exceeds CDF_TOL it still brackets the
            # root, and its end with the smaller residual is the root to
            # working precision if that end's CDF is within STALLED_CDF_TOL
            # of the target
            stalled = ~bad & ~hit & ~(tlim <= 0.5)
            ends = stalled & (np.sign(fa) * np.sign(fb) < 0.0)
            if ends.any():
                idx, ga, gb = live[ends], fa[ends], fb[ends]
                g = np.where(np.abs(ga) < np.abs(gb), ga, gb)
                ends[ends] = (np.abs(ndtr(z[idx] + g) - target[idx])
                              <= STALLED_CDF_TOL)
            done = bad | hit | stalled
            if done.any():
                mu[live[hit]] = xt[hit]
                mu[live[ends]] = xm[ends]
                status[live[stalled & ~ends]] = _STALLED
                status[live[bad]] = _UNDERFLOW
                keep = ~done
                live, scale, a, fa, b, fb, t = (
                    v[keep] for v in (live, scale, a, fa, b, fb, t))
        status[live] = _STALLED
        failed = status != _SOLVED
        mu[failed] = np.where(target[failed] > 0.5, -np.inf, np.inf)
        return mu, status


def truncated_cdf(x: float, spec: TruncatedNormalSpec) -> float:
    """CDF of the truncated normal at ``x``: mass of ``(-inf, x] ∩ R`` over mass of R.

    Raises ``RegionMassUnderflow`` when the region carries no representable
    mass at its mean.
    """
    table = PieceTable(np.array([x], dtype=float), np.array([spec.lam]), [spec.region])
    return float(table.cdf(np.array([spec.mu], dtype=float))[0])


def invert_mean(target: float, x_obs: float, lam: float, region: IntervalUnion) -> float:
    """Mean ``mu`` at which the truncated CDF of ``x_obs`` equals ``target``.

    The one-problem form of :meth:`PieceTable.invert`; a root it cannot find
    raises ``BracketFailure``, or ``RegionMassUnderflow`` for a region that
    carries no representable mass.
    """
    if not 0.0 < target < 1.0:
        raise errors.InputError(f"target must be in (0,1), got {target}")
    if not region.contains(float(x_obs)):
        raise errors.ObservationOutsideRegion(
            f"x={x_obs} is not interior to the region {region}")
    table = PieceTable(np.array([x_obs], dtype=float), np.array([lam], dtype=float),
                       [region])
    mu, status = table.invert(np.array([target], dtype=float), np.zeros(1, dtype=int))
    code = int(status[0])
    if code in (_BELOW, _ABOVE):
        side = "below" if code == _BELOW else "above"
        raise errors.BracketFailure(
            f"could not bracket target {target} from {side} (CDF pinned)")
    if code == _UNDERFLOW:
        raise errors.RegionMassUnderflow(
            "region carries no representable mass while inverting the mean")
    if code == _STALLED:
        raise errors.BracketFailure(
            "the root-finder stalled outside the CDF tolerance; the region "
            "may be corrupted or the root too far in a tail")
    return float(mu[0])
