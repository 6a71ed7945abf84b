"""Truncated-normal CDF over interval unions and mean-parameter inversion.

The regions produced by selection geometry routinely sit many standard
deviations from the candidate mean during interval inversion, so all
probability mass is computed from standardized endpoints in log space:
same-side intervals use complementary-function differences via
``log(1 - exp(d))``, intervals straddling the mean use a pair of
half-``erf`` terms that cannot cancel.

Every evaluation is batched: a ``PieceTable`` takes a batch of problems, one
region each as a padded row, and keeps only each row's real pieces, as flat
entries.  A probe measures each entry once, by the formula of its side of
the mean, and reduces every row's two halves in one pass.  The table's
kernel is the log CDF; ``cdf`` exponentiates it, and ``invert`` maps it to
the probit scale, where a region without truncation gives a residual exactly
linear in the mean.  Each row's result depends on that row alone, so a table
gives bit-for-bit the values of a one-row table; ``truncated_cdf`` is the
one-problem CDF.  A problem that ``invert`` cannot solve is reported by its
status, with an infinite limit, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import erf, log_ndtr, ndtr, ndtri, ndtri_exp

from . import errors
from .intervals import IntervalUnion, padded_rows

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

    Row ``i`` is the normal with scale ``lam[i]`` truncated to the region
    given as the padded row ``lo[i]``/``hi[i]``, its CDF taken at ``x[i]``.
    The table drops the padding: it keeps, as flat entries row after row
    (``lo``, ``hi``; ``count[i]`` of row ``i``), the region's pieces in
    order and then the piece holding ``x[i]`` clipped at ``x[i]`` (empty
    where no piece holds it).  A row's denominator is its pieces and its
    numerator the pieces that end by ``x[i]``, then the clipped one.
    """

    def __init__(self, x: np.ndarray, lam: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        x, lam = np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
        if not np.all(lam > 0.0):
            raise errors.InputError("lambda must be positive")
        if not np.all((lo < hi).any(axis=1)):
            raise errors.InputError("truncation region must be nonempty")
        k, width = lo.shape
        at = x[:, None]
        held = (lo < at) & (at < hi)
        clip = np.where(held.any(axis=1), lo[np.arange(k), held.argmax(axis=1)], x)
        real = np.hstack([lo < hi, np.ones((k, 1), dtype=bool)])
        lo, hi = np.hstack([lo, clip[:, None]]), np.hstack([hi, at])
        # denominator: the pieces; numerator: those ending by x, then the clipped one
        self._hold(x, lam, lo[real], hi[real], real.sum(axis=1),
                   (np.arange(width + 1) < width)[np.nonzero(real)[1]], (hi <= at)[real])

    def _hold(self, x, lam, lo, hi, count, den, num) -> "PieceTable":
        """Hold the rows given as flat entries; ``den``/``num`` mark their halves."""
        self.x, self.lam, self.lo, self.hi, self.count = x, lam, lo, hi, count
        self._den, self._num, self._scale = den, num, np.repeat(lam, count)
        # every half's entries, in order; half 2i is row i's denominator
        half = np.flatnonzero(np.concatenate([den, num]))
        self._pick = half % lo.size
        self._seg = 2 * np.repeat(np.arange(count.size), count)[self._pick] + half // lo.size
        return self

    def _rows(self, rows, entries) -> "PieceTable":
        """The table of ``rows`` (indices or a mask), whose entries are ``entries``."""
        return PieceTable.__new__(PieceTable)._hold(
            self.x[rows], self.lam[rows], self.lo[entries], self.hi[entries],
            self.count[rows], self._den[entries], self._num[entries])

    def _take(self, rows: np.ndarray) -> "PieceTable":
        """The table of ``rows``, in that order (repeats allowed)."""
        count = self.count[rows]
        first = (np.cumsum(self.count) - self.count)[rows] - (np.cumsum(count) - count)
        return self._rows(rows, np.repeat(first, count) + np.arange(count.sum()))

    def _keep(self, mask: np.ndarray) -> "PieceTable":
        """The table of the rows where ``mask`` holds."""
        return self if mask.all() else self._rows(mask, np.repeat(mask, self.count))

    def log_cdf(self, mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(log CDF at the mean ``mu``, region-mass underflow flag) of every
        row.

        Each entry is measured once, by the upper-tail formula on one side of
        the mean (reflected below it) or the half-``erf`` pair across it; a
        piece that rounds to no width, or has a NaN end (an infinite mean),
        has no mass.  Each half sums its terms in order, largest factored out."""
        with np.errstate(all="ignore"):
            m = np.repeat(mu, self.count)
            a = (self.lo - m) / self._scale
            b = (self.hi - m) / self._scale
            straddle = (a < 0.0) & (b > 0.0)
            tail = np.flatnonzero((b > a) ^ straddle)
            straddle = np.flatnonzero(straddle)
            logs = np.full(a.size, -np.inf)
            # the upper-tail masses beyond the nearer and the farther end
            la = log_ndtr(np.minimum(b[tail], -a[tail]))
            lb = log_ndtr(np.minimum(a[tail], -b[tail]))
            # both ends beyond log_ndtr's range (about 1e154 scales out) leave
            # lb - la undefined; such a piece carries no mass
            logs[tail] = np.where(la == -np.inf, -np.inf, la + _log1mexp(lb - la))
            logs[straddle] = np.log(0.5 * (erf(b[straddle] / _SQRT2)
                                           + erf(-a[straddle] / _SQRT2)))
            picked = logs[self._pick]
            top = np.full(2 * self.count.size, -np.inf)
            np.maximum.at(top, self._seg, picked)
            shift = np.where(np.isfinite(top), top, 0.0)
            sums = shift + np.log(np.bincount(self._seg, np.exp(picked - shift[self._seg]),
                                              minlength=shift.size))
            logden, lognum = sums[0::2], sums[1::2]
            return np.minimum(lognum - logden, 0.0), ~(logden > -np.inf)

    def cdf(self, mu: np.ndarray) -> np.ndarray:
        """Every row's CDF at its mean ``mu[i]``.

        Raises ``RegionMassUnderflow`` when a row's region carries no
        representable mass at its mean.
        """
        logf, underflow = self.log_cdf(mu)
        if underflow.any():
            raise mass_underflow(mu, underflow)
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
        with np.errstate(all="ignore"):
            k = target.shape[0]
            # one gathered table at a time: the problems still running
            current = self._take(rows)
            x, lam = current.x, current.lam
            z = ndtri(target)
            status = np.full(k, _SOLVED)
            mu = np.full(k, np.nan)

            def probe(m, idx, table):
                """(probit residual g, CDF within CDF_TOL, underflow) of problems
                ``idx``, the rows of ``table``, at means ``m``."""
                logf, bad = table.log_cdf(m)
                hit = ~bad & (np.abs(np.exp(logf) - target[idx]) <= CDF_TOL)
                return ndtri_exp(logf) - z[idx], hit, bad

            # start at the classical endpoint, the root for an untruncated region
            a = x - lam * z
            fa, hit, bad = probe(a, np.arange(k), current)
            mu[hit] = a[hit]
            status[bad] = _UNDERFLOW
            # step towards the root, first by 1.5 |g| scales (g falls by one per
            # scale without truncation), then doubling the step until g changes
            # sign; a is the last point with the start's sign, b the newest
            step = np.copysign(lam * np.clip(1.5 * np.abs(fa), 1e-3, 64.0), fa)
            b, fb = a.copy(), fa.copy()
            grow, keep = np.arange(k), ~hit & ~bad
            for expansions in range(MAX_EXPAND + 1):
                keep &= np.sign(fb[grow]) == np.sign(fa[grow])
                grow, current = grow[keep], current._keep(keep)
                if not grow.size:
                    break
                if expansions == MAX_EXPAND:
                    status[grow] = np.where(fa[grow] < 0.0, _BELOW, _ABOVE)
                    break
                a[grow], fa[grow] = b[grow], fb[grow]
                b[grow] += step[grow]
                step[grow] *= 2.0
                fb[grow], hit, bad = probe(b[grow], grow, current)
                mu[grow[hit]] = b[grow[hit]]
                status[grow[bad]] = _UNDERFLOW
                keep = ~hit & ~bad

            # Chandrupatla's method on g (Chandrupatla 1997, "A new hybrid
            # quadratic/bisection algorithm for finding the zero of a nonlinear
            # function without using derivatives"), from a regula falsi point: a
            # is the newest iterate, b the bracket end with the opposite sign, c
            # the iterate dropped from the bracket; inverse quadratic
            # interpolation through the three when it is safe, bisection
            # otherwise.
            live = np.flatnonzero((status == _SOLVED) & np.isnan(mu))
            current = self._take(rows[live])
            scale = lam[live]
            a, fa, b, fb = a[live], fa[live], b[live], fb[live]
            t = fa / (fa - fb)
            t = np.where((t > 0.0) & (t < 1.0), t, 0.5)  # no secant past an infinite g
            for _ in range(MAX_ROOT_ITER):
                if not live.size:
                    break
                xt = a + t * (b - a)
                ft, hit, bad = probe(xt, live, current)
                same = np.sign(ft) == np.sign(fa)
                c, fc = np.where(same, a, b), np.where(same, fa, fb)
                b, fb = np.where(same, b, a), np.where(same, fb, fa)
                a, fa = xt, ft
                xm = np.where(np.abs(fa) < np.abs(fb), a, b)
                tlim = 2.0 * _EPS * (np.abs(xm) + scale) / np.abs(b - a)
                xi = (a - b) / (c - b)
                phi = (fa - fb) / (fc - fb)
                iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                t_iqi = (fa / (fb - fa) * fc / (fb - fc)
                         + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
                t = np.minimum(np.maximum(np.where(iqi, t_iqi, 0.5), tlim), 1.0 - tlim)
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
                    current = current._keep(keep)
            status[live] = _STALLED
            failed = status != _SOLVED
            mu[failed] = np.where(target[failed] > 0.5, -np.inf, np.inf)
            return mu, status


def mass_underflow(mu: np.ndarray, underflow: np.ndarray) -> errors.RegionMassUnderflow:
    """The error of a CDF evaluation at the means ``mu`` whose rows flagged
    in ``underflow`` carry no representable mass; it names the first one."""
    i = int(np.flatnonzero(underflow)[0])
    return errors.RegionMassUnderflow(
        f"region carries no representable mass at mu={mu[i]}")


def truncated_cdf(x: float, spec: TruncatedNormalSpec) -> float:
    """CDF of the truncated normal at ``x``: mass of ``(-inf, x] ∩ R`` over mass of R.

    Raises ``RegionMassUnderflow`` when the region carries no representable
    mass at its mean.
    """
    table = PieceTable(np.array([x], dtype=float), np.array([spec.lam]),
                       *padded_rows([spec.region]))
    return float(table.cdf(np.array([spec.mu], dtype=float))[0])
