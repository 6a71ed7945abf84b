"""User-level targets and confidence intervals, classical and selection-corrected.

The corrected interval inverts the truncated-normal CDF of ``eta'y`` over the
selection-event region in its mean parameter; the classical interval is the
textbook normal/t interval with no conditioning.  Both take ``eta'y`` and
``|eta|`` as ``geometry.measure`` forms and refuses them, so that scaling a
target by ``2**k`` scales its limits by ``2**k`` exactly and leaves its
pivot unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.stats import norm as norm_dist, t as t_dist

from . import errors
from .criteria import CandidatePolicy, CriterionSpec, DEFAULT_POLICY
from .geometry import (
    SelectionEvent, _accepted, _measured, _scaled_directions, _split, measure,
    selection_events)
from .intervals import FULL_LINE, IntervalUnion, padded_rows
from .linmodel import Dataset, IndexSet
from .truncnorm import PieceTable, TruncatedNormalSpec, mass_underflow, truncated_cdf

PREDICTION_MEAN = "prediction_mean"
COEFFICIENT = "coefficient"
LINEAR_COMBO = "linear_combo"

METHOD_CLASSICAL_T = "classical_t"
METHOD_CLASSICAL_KNOWN = "classical_known_sigma"
METHOD_CORRECTED = "corrected"


@dataclass(frozen=True)
class InferenceTarget:
    """What to build an interval for.

    One of: the mean response at a new point ``x`` (full length-p vector),
    a single coefficient of the selected model (by index or name), or an
    arbitrary linear combination of the selected model's coefficients.
    """

    kind: str
    x: Optional[Tuple[float, ...]] = None
    index: Optional[int] = None
    name: Optional[str] = None
    combo: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        for values in (self.x, self.combo):
            if values is not None and not all(map(math.isfinite, values)):
                raise errors.InputError(
                    f"{self.kind} target holds a non-finite value")

    @classmethod
    def prediction_mean(cls, x) -> "InferenceTarget":
        return cls(kind=PREDICTION_MEAN, x=tuple(float(v) for v in x))

    @classmethod
    def coefficient(cls, which: Union[int, str]) -> "InferenceTarget":
        if isinstance(which, str):
            return cls(kind=COEFFICIENT, name=which)
        return cls(kind=COEFFICIENT, index=int(which))

    @classmethod
    def linear_combo(cls, c) -> "InferenceTarget":
        return cls(kind=LINEAR_COMBO, combo=tuple(float(v) for v in c))

    def label(self, data: Optional[Dataset] = None) -> str:
        if self.kind == COEFFICIENT:
            if self.name is not None:
                return self.name
            if data is not None:
                return data.name_of(self.index)
            return f"coef[{self.index}]"
        if self.kind == PREDICTION_MEAN:
            return "prediction"
        return "combo"


@dataclass(frozen=True)
class SigmaSpec:
    """How the noise standard deviation enters the interval."""

    strategy: str  # known | mse_aic | mse_full | external
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.strategy in ("known", "external"):
            if self.sigma is None or not 0.0 < self.sigma < math.inf:
                raise errors.InputError(
                    f"{self.strategy} sigma requires a positive finite value")
        elif self.strategy not in ("mse_aic", "mse_full"):
            raise errors.InputError(f"unknown sigma strategy {self.strategy!r}")

    @classmethod
    def known(cls, sigma: float) -> "SigmaSpec":
        return cls("known", float(sigma))

    @classmethod
    def external(cls, sigma: float) -> "SigmaSpec":
        return cls("external", float(sigma))

    @classmethod
    def mse_aic(cls) -> "SigmaSpec":
        return cls("mse_aic")

    @classmethod
    def mse_full(cls) -> "SigmaSpec":
        return cls("mse_full")

    @classmethod
    def parse(cls, text: str) -> "SigmaSpec":
        name, colon, value = text.strip().partition(":")
        t = name.lower().replace("-", "_")
        if t in ("known", "external") and colon:
            try:
                return cls(t, float(value))
            except ValueError:
                raise errors.InputError(
                    f"cannot parse the sigma value in {text!r}") from None
        if t in ("mse_aic", "mse_full") and not colon:
            return cls(t)
        raise errors.InputError(
            f"cannot parse sigma strategy {text!r}; expected known:<v>, "
            "mse-aic, mse-full or external:<v>")

    @property
    def label(self) -> str:
        return self.strategy


@dataclass(frozen=True)
class CIResult:
    """A confidence interval with its construction metadata."""

    lower: float
    upper: float
    point_estimate: float
    pivot: Optional[float]
    alpha: float
    method: str
    sigma_used: float
    event_summary: Optional[SelectionEvent] = None


def _target_weights(data: Dataset, S_hat: IndexSet, target: InferenceTarget) -> np.ndarray:
    """The |S|-vector ``w`` defining the estimand ``w' beta_S``."""
    if target.kind == PREDICTION_MEAN:
        x = np.asarray(target.x, dtype=float)
        if x.shape[0] != data.p:
            raise errors.DimensionMismatch(
                f"prediction point has length {x.shape[0]}, expected p={data.p}")
        return x[[i - 1 for i in S_hat.indices]]
    if target.kind == COEFFICIENT:
        idx = target.index if target.index is not None else data.index_of(target.name)
        pos = S_hat.position_of(idx)
        w = np.zeros(len(S_hat))
        w[pos] = 1.0
        return w
    if target.kind == LINEAR_COMBO:
        c = np.asarray(target.combo, dtype=float)
        if c.shape[0] != len(S_hat):
            raise errors.DimensionMismatch(
                f"combination has length {c.shape[0]}, expected |S|={len(S_hat)}")
        return c
    raise errors.InputError(f"unknown target kind {target.kind!r}")


def target_directions(
    data: Dataset, S_hat: IndexSet, targets: Sequence[InferenceTarget],
) -> np.ndarray:
    """(T, n) stack of the directions ``eta`` of ``targets``, one per row.

    ``eta = X_S (X_S'X_S)^{-1} w`` has ``eta'y`` equal to the plug-in
    estimate ``w' beta_S`` of its target and always lies in the selected
    model's column span, which keeps the selection geometry in its
    simplified regime.  All targets share one solve against ``R_S'``, of
    weights scaled by powers of two into [1/2, 1): a finite target solves
    without overflow, and ``2**k`` times it has ``2**k`` times its direction.
    """
    W = np.array([_target_weights(data, S_hat, t) for t in targets],
                 dtype=float).reshape(len(targets), len(S_hat))
    q, r = data._qr_of(S_hat.indices)
    if not len(S_hat):
        raise errors.InputError("cannot build a target direction for an empty model")
    _, exp = np.frexp(np.abs(W).max(axis=1, initial=0.0))
    unit = np.linalg.solve(r.T, np.ldexp(W, -exp[:, None]).T).T @ q.T
    with np.errstate(over="ignore"):
        return np.ldexp(unit, exp[:, None])


def eta_for_target(data: Dataset, S_hat: IndexSet, target: InferenceTarget) -> np.ndarray:
    """Direction ``eta`` of one target; see :func:`target_directions`."""
    return target_directions(data, S_hat, [target])[0]


def estimate_sigma(data: Dataset, S_hat: IndexSet, spec: SigmaSpec) -> float:
    """Noise standard deviation under the given strategy."""
    if spec.strategy in ("known", "external"):
        return float(spec.sigma)
    S = S_hat if spec.strategy == "mse_aic" else data.full_model()
    df = data.df_residual(S)
    if df <= 0:
        raise errors.NonPositiveDF(
            f"model {S} leaves no residual degrees of freedom (df={df})")
    data.validate_model(S)
    q, _ = data._qr_of(S.indices)
    resid = data.y - q @ (q.T @ data.y)
    r = float(resid @ resid)
    if r <= 0.0:
        raise errors.NonPositiveRSS(
            "zero residual sum of squares; sigma estimate degenerates", model=S)
    return math.sqrt(r / df)


@functools.lru_cache(maxsize=64)
def _upper_quantile(alpha: float, df: Optional[int]) -> float:
    """``1 - alpha/2`` quantile of the standard normal (``df`` None) or of t."""
    if df is None:
        return float(norm_dist.ppf(1.0 - alpha / 2.0))
    return float(t_dist.ppf(1.0 - alpha / 2.0, df))


def critical_value(
    data: Dataset, S_hat: IndexSet, sigma_spec: SigmaSpec, alpha: float,
) -> Tuple[float, str]:
    """(two-sided critical value, method) of the classical interval.

    A known or external sigma takes the normal quantile; an estimated one
    takes the t quantile on the residual degrees of freedom of the model it
    was estimated from.
    """
    if sigma_spec.strategy in ("known", "external"):
        return _upper_quantile(alpha, None), METHOD_CLASSICAL_KNOWN
    S = S_hat if sigma_spec.strategy == "mse_aic" else data.full_model()
    return _upper_quantile(alpha, data.df_residual(S)), METHOD_CLASSICAL_T


def classical_ci(
    data: Dataset,
    S_hat: IndexSet,
    target: InferenceTarget,
    alpha: float,
    sigma_spec: SigmaSpec,
) -> CIResult:
    """Textbook interval on the selected model, with no selection correction:
    the one cell of :func:`interval_cells` over the whole line."""
    eta = eta_for_target(data, S_hat, target)
    cells = interval_cells(data, S_hat, *measure(data.y, eta[None, :]),
                           padded_rows([FULL_LINE]), [sigma_spec], alpha)
    point, half = float(cells.points[0]), float(cells.half[0, 0])
    return CIResult(lower=point - half, upper=point + half, point_estimate=point,
                    pivot=None, alpha=alpha, method=cells.methods[0],
                    sigma_used=float(cells.sigmas[0]))


@dataclass(frozen=True)
class IntervalCells:
    """Every classical interval of one response, and its corrected ones' inputs.

    Row ``i`` is the target whose direction ``eta_i`` has ``eta_i'y =
    points[i]``; column ``j`` is noise strategy ``j``.  The classical
    interval is ``points[i] ± half[i, j]``; the corrected one inverts the
    normal with scale ``lam[i, j] = sigmas[j] |eta_i|`` truncated to the
    padded region row ``lo[i]``/``hi[i]``, taken at ``points[i]``, at the
    equal tails of ``alpha``.
    """

    points: np.ndarray  # (T,) eta'y
    lam: np.ndarray  # (T, S)
    half: np.ndarray  # (T, S)
    sigmas: np.ndarray  # (S,)
    methods: Tuple[str, ...]  # classical method of each strategy
    lo: np.ndarray  # (T, W)
    hi: np.ndarray  # (T, W)
    alpha: float


@dataclass(frozen=True)
class IntervalTable(IntervalCells):
    """One response's cells with their corrected intervals
    ``(lower[i, j], upper[i, j])`` and their pivots: the truncated CDF of
    ``points[i]`` at the mean of row ``i`` the solve was given.  A corrected
    limit that cannot be bracketed (the CDF is pinned) is infinite rather
    than fabricated.
    """

    lower: np.ndarray  # (T, S)
    upper: np.ndarray  # (T, S)
    pivots: np.ndarray  # (T, S)


def interval_cells(
    data: Dataset,
    S_hat: IndexSet,
    points: np.ndarray,
    lengths: np.ndarray,
    regions: Tuple[np.ndarray, np.ndarray],
    strategies: Sequence[SigmaSpec],
    alpha: float,
) -> IntervalCells:
    """Classical intervals and corrected-interval inputs of every (target,
    strategy) pair.

    ``points`` and ``lengths`` are the T target directions' ``eta'y`` and
    ``|eta|`` for the response ``data.y``, as ``geometry.measure`` forms
    them, and ``regions`` the padded rows ``(lo, hi)`` of their selection
    events' regions.  Estimated noise levels are plugged into the
    known-sigma machinery.  Each target's observation is checked against its
    region once.
    """
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    lo, hi = regions
    if len(points) != lo.shape[0]:
        raise errors.DimensionMismatch(
            f"{len(points)} directions for {lo.shape[0]} regions")
    sigmas = np.array([estimate_sigma(data, S_hat, s) for s in strategies],
                      dtype=float)
    crit = [critical_value(data, S_hat, s, alpha) for s in strategies]
    quants = np.array([q for q, _ in crit], dtype=float)
    _require_inside(points, lo, hi)
    return IntervalCells(
        points=points, lam=np.outer(lengths, sigmas),
        half=np.outer(lengths, sigmas * quants), sigmas=sigmas,
        methods=tuple(m for _, m in crit), lo=lo, hi=hi, alpha=alpha)


def _require_inside(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Refuse the first ``points[i]`` not interior to its row ``lo[i]``/``hi[i]``."""
    x = points[:, None]
    outside = np.flatnonzero(~((lo < x) & (x < hi)).any(axis=1))
    if outside.size:
        i = outside[0]
        raise errors.ObservationOutsideRegion(
            f"x={points[i]} is not interior to the region "
            f"{IntervalUnion.from_row(lo[i], hi[i])}")


def solve_intervals(
    cells: Sequence[IntervalCells], mus: Sequence[Sequence[float]],
) -> List[Union[IntervalTable, errors.RegionMassUnderflow]]:
    """The corrected intervals of many responses' cells, and their pivots at
    the mean ``mus[r][i]`` of row ``i`` of response ``r``.

    One :class:`PieceTable` holds every cell of every response, in order;
    one inversion over it gives both corrected limits of every cell, and one
    CDF evaluation every pivot.  A response with a cell whose region carries
    no representable mass at its mean gets that ``RegionMassUnderflow``
    instead of a table.  Each row of the table depends on that row alone, so
    each response's table holds bit for bit the numbers it would hold solved
    alone.
    """
    if not cells:
        return []
    x = np.concatenate([np.repeat(c.points, c.lam.shape[1]) for c in cells])
    lam = np.concatenate([c.lam.ravel() for c in cells])
    mu = np.concatenate([np.repeat(np.asarray(m, dtype=float), c.lam.shape[1])
                         for c, m in zip(cells, mus)])
    bounds = np.cumsum([0] + [c.lam.size for c in cells]).tolist()
    k = lam.size
    lo = np.zeros((k, max(c.lo.shape[1] for c in cells)))
    hi = np.zeros_like(lo)
    for c, a, b in zip(cells, bounds, bounds[1:]):
        lo[a:b, :c.lo.shape[1]] = np.repeat(c.lo, c.lam.shape[1], axis=0)
        hi[a:b, :c.hi.shape[1]] = np.repeat(c.hi, c.lam.shape[1], axis=0)
    table = PieceTable(x, lam, lo, hi)
    target = np.concatenate([np.full(c.lam.size, 1.0 - c.alpha / 2.0) for c in cells]
                            + [np.full(c.lam.size, c.alpha / 2.0) for c in cells])
    limits, _ = table.invert(target, np.tile(np.arange(k), 2))
    logf, underflow = table.log_cdf(mu)
    return [mass_underflow(mu[a:b], underflow[a:b]) if underflow[a:b].any()
            else IntervalTable(**vars(c), lower=limits[a:b].reshape(c.lam.shape),
                               upper=limits[k + a:k + b].reshape(c.lam.shape),
                               pivots=np.exp(logf[a:b]).reshape(c.lam.shape))
            for c, a, b in zip(cells, bounds, bounds[1:])]


def interval_table(
    data: Dataset,
    S_hat: IndexSet,
    points: np.ndarray,
    lengths: np.ndarray,
    regions: Tuple[np.ndarray, np.ndarray],
    strategies: Sequence[SigmaSpec],
    alpha: float,
    mu: Sequence[float],
) -> IntervalTable:
    """Classical and corrected intervals of every (target, strategy) pair of
    one response, with their pivots at the mean ``mu[i]`` of target ``i``:
    :func:`interval_cells`, solved alone by :func:`solve_intervals`.

    Raises ``RegionMassUnderflow`` when a cell's region carries no
    representable mass at its mean.
    """
    (table,) = solve_intervals([interval_cells(
        data, S_hat, points, lengths, regions, strategies, alpha)], [mu])
    if isinstance(table, errors.RegionMassUnderflow):
        raise table
    return table


def _single_target(
    data: Dataset, y: Optional[np.ndarray], S_hat: IndexSet,
    target: InferenceTarget, criterion_spec: CriterionSpec,
    policy: CandidatePolicy, event: Optional[SelectionEvent],
) -> Tuple[Dataset, np.ndarray, np.ndarray, SelectionEvent]:
    """(data with response ``y``, the target's measurement, its selection event).

    A supplied event must be one of ``S_hat`` and, for what it records, cut
    along the target's direction through this response: its direction and
    its response's part orthogonal to it must be the target's and this
    response's (to rounding: 1e-12 of their norms, which ``math.hypot``
    forms without overflow or underflow).
    """
    if y is not None and y is not data.y:
        data = data.replace_y(y)
    eta = eta_for_target(data, S_hat, target)
    if event is not None and event.selected != S_hat:
        raise errors.NotSelectedModel(
            f"the event is one of {event.selected}, not of {S_hat}")
    unit, exp, t = _accepted(*_scaled_directions(data.y, eta[None, :]))
    if event is None:
        event = selection_events(data, data.y, eta[None, :], S_hat,
                                 criterion_spec, policy)[0]
    else:
        for recorded, want, what in (
                (event.eta, eta, "along another direction than the target's"),
                (event.z, _split(data.y, unit)[1][0],
                 "through another response than this one")):
            if recorded is not None and (
                    np.shape(recorded) != want.shape
                    or not math.dist(recorded, want) <= 1e-12 * math.hypot(*want)):
                raise errors.InputError(f"event was cut {what}")
    return (data, *_measured(unit, exp, t), event)


def corrected_ci(
    data: Dataset,
    y: Optional[np.ndarray],
    S_hat: IndexSet,
    target: InferenceTarget,
    alpha: float,
    sigma_spec: SigmaSpec,
    criterion_spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
    event: Optional[SelectionEvent] = None,
) -> CIResult:
    """Selection-corrected equal-tail interval for the target.

    The one-target, one-strategy case of :func:`interval_table`; ``pivot``
    is the truncated CDF of ``eta'y`` at mean 0.

    ``event`` may carry a precomputed selection event for this exact target
    and response, which skips rebuilding the region; an event of another
    model raises ``NotSelectedModel``, and one cut along another direction
    ``InputError``.
    """
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    data, points, lengths, event = _single_target(
        data, y, S_hat, target, criterion_spec, policy, event)
    table = interval_table(data, S_hat, points, lengths, padded_rows([event.region]),
                           [sigma_spec], alpha, [0.0])
    return CIResult(lower=float(table.lower[0, 0]), upper=float(table.upper[0, 0]),
                    point_estimate=float(table.points[0]),
                    pivot=float(table.pivots[0, 0]), alpha=alpha,
                    method=METHOD_CORRECTED, sigma_used=float(table.sigmas[0]),
                    event_summary=event)


def pivot_value(
    data: Dataset,
    y: Optional[np.ndarray],
    S_hat: IndexSet,
    target: InferenceTarget,
    hypothesized_value: float,
    sigma_spec: SigmaSpec,
    criterion_spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
    event: Optional[SelectionEvent] = None,
) -> float:
    """Truncated-normal CDF of ``eta'y`` at a hypothesized target value.

    Under the true value and conditional on the selection, this is uniform
    on (0,1); it is the quantity the corrected interval inverts.  A supplied
    ``event`` is checked as :func:`corrected_ci` checks it.
    """
    data, points, lengths, event = _single_target(
        data, y, S_hat, target, criterion_spec, policy, event)
    lam = float(lengths[0]) * estimate_sigma(data, S_hat, sigma_spec)
    _require_inside(points, *padded_rows([event.region]))
    return truncated_cdf(float(points[0]), TruncatedNormalSpec(
        mu=float(hypothesized_value), lam=lam, region=event.region))
