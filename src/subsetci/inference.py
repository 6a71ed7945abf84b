"""User-level targets and confidence intervals, classical and selection-corrected.

The corrected interval inverts the truncated-normal CDF of ``eta'y`` over the
selection-event region in its mean parameter; the classical interval is the
textbook normal/t interval with no conditioning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import norm as norm_dist, t as t_dist

from . import errors
from .criteria import CandidatePolicy, CriterionSpec, DEFAULT_POLICY
from .geometry import SelectionEvent, decompose, selection_event
from .intervals import IntervalUnion
from .linmodel import Dataset, IndexSet, fit_submodel
from .truncnorm import TruncatedNormalSpec, invert_mean, truncated_cdf

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
            if self.sigma is None or not self.sigma > 0.0:
                raise errors.InputError(
                    f"{self.strategy} sigma requires a positive value")
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
        t = text.strip().lower().replace("-", "_")
        if t.startswith("known:"):
            return cls.known(float(t.split(":", 1)[1]))
        if t.startswith("external:"):
            return cls.external(float(t.split(":", 1)[1]))
        if t == "mse_aic":
            return cls.mse_aic()
        if t == "mse_full":
            return cls.mse_full()
        raise errors.InputError(
            f"cannot parse sigma strategy {text!r}; expected known:<v>, "
            "mse-aic, mse-full or external:<v>")

    @property
    def label(self) -> str:
        if self.strategy == "known":
            return "known"
        if self.strategy == "external":
            return "external"
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


def eta_for_target(data: Dataset, S_hat: IndexSet, target: InferenceTarget) -> np.ndarray:
    """Direction ``eta`` with ``eta'y`` equal to the plug-in estimate of the target.

    ``eta = X_S (X_S'X_S)^{-1} w``, always in the selected model's column
    span, which keeps the selection geometry in its simplified regime.
    """
    w = _target_weights(data, S_hat, target)
    q, r = data._qr_of(S_hat.indices)
    if not len(S_hat):
        raise errors.InputError("cannot build a target direction for an empty model")
    return q @ solve_triangular(r, w, trans="T", check_finite=False)


def estimate_sigma(data: Dataset, S_hat: IndexSet, spec: SigmaSpec) -> float:
    """Noise standard deviation under the given strategy."""
    if spec.strategy in ("known", "external"):
        return float(spec.sigma)
    S = S_hat if spec.strategy == "mse_aic" else data.full_model()
    df = data.df_residual(S)
    if df <= 0:
        raise errors.NonPositiveDF(
            f"model {S} leaves no residual degrees of freedom (df={df})")
    r = fit_submodel(data, S).rss
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
    """Textbook interval on the selected model, with no selection correction."""
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    eta = eta_for_target(data, S_hat, target)
    point = float(eta @ data.y)
    scale = float(np.linalg.norm(eta))
    sigma = estimate_sigma(data, S_hat, sigma_spec)
    quant, method = critical_value(data, S_hat, sigma_spec, alpha)
    half = quant * sigma * scale
    return CIResult(
        lower=point - half,
        upper=point + half,
        point_estimate=point,
        pivot=None,
        alpha=alpha,
        method=method,
        sigma_used=sigma,
    )


def corrected_limits(
    alpha: float,
    x_obs: Sequence[float],
    lam: Sequence[float],
    regions: Sequence[IntervalUnion],
) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-tail corrected (lower, upper) limits for a batch of problems.

    Element ``i`` observes ``x_obs[i]`` from a normal with scale ``lam[i]``
    truncated to ``regions[i]``.  Both limits of every element come from one
    batched :func:`invert_mean` call; a limit that cannot be bracketed (the
    CDF is pinned) is reported as infinite rather than fabricated.
    """
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    k = len(regions)
    x_obs = np.asarray(x_obs, dtype=float)
    lam = np.asarray(lam, dtype=float)
    targets = np.repeat([1.0 - alpha / 2.0, alpha / 2.0], k)
    mu = invert_mean(targets, np.tile(x_obs, 2), np.tile(lam, 2), list(regions) * 2)
    return mu[:k], mu[k:]


def corrected_ci(
    data: Dataset,
    y: Optional[np.ndarray],
    S_hat: IndexSet,
    target: InferenceTarget,
    alpha: float,
    sigma_spec: SigmaSpec,
    criterion_spec: CriterionSpec,
    skip_supersets: bool = True,
    policy: CandidatePolicy = DEFAULT_POLICY,
    event: Optional[SelectionEvent] = None,
) -> CIResult:
    """Selection-corrected equal-tail interval for the target.

    Inverts the truncated-normal CDF of ``eta'y`` over the selection-event
    region in its mean.  Estimated noise levels are plugged into the known-
    sigma machinery.  If an endpoint cannot be bracketed (the CDF is pinned),
    that endpoint is reported as infinite rather than fabricated.

    ``event`` may carry a precomputed selection event for this exact target
    and response, which skips rebuilding the region.
    """
    if not 0.0 < alpha < 1.0:
        raise errors.InputError(f"alpha must be in (0,1), got {alpha}")
    if y is not None and y is not data.y:
        data = data.replace_y(y)
    eta = eta_for_target(data, S_hat, target)
    decomp = decompose(data.y, eta)
    if event is None:
        event = selection_event(data, decomp, S_hat, criterion_spec,
                                skip_supersets=skip_supersets, policy=policy)
    sigma = estimate_sigma(data, S_hat, sigma_spec)
    lam = sigma * math.sqrt(decomp.eta_norm2)
    x_obs = decomp.eta_dot_y
    lower, upper = corrected_limits(alpha, [x_obs], [lam], [event.region])
    pivot = truncated_cdf(
        x_obs, TruncatedNormalSpec(mu=0.0, lam=lam, region=event.region))
    return CIResult(
        lower=float(lower[0]),
        upper=float(upper[0]),
        point_estimate=x_obs,
        pivot=pivot,
        alpha=alpha,
        method=METHOD_CORRECTED,
        sigma_used=sigma,
        event_summary=event,
    )


def pivot_value(
    data: Dataset,
    y: Optional[np.ndarray],
    S_hat: IndexSet,
    target: InferenceTarget,
    hypothesized_value: float,
    sigma_spec: SigmaSpec,
    criterion_spec: CriterionSpec,
    skip_supersets: bool = True,
    policy: CandidatePolicy = DEFAULT_POLICY,
    event: Optional[SelectionEvent] = None,
) -> float:
    """Truncated-normal CDF of ``eta'y`` at a hypothesized target value.

    Under the true value and conditional on the selection, this is uniform
    on (0,1); it is the quantity the corrected interval inverts.
    """
    if y is not None and y is not data.y:
        data = data.replace_y(y)
    eta = eta_for_target(data, S_hat, target)
    decomp = decompose(data.y, eta)
    if event is None:
        event = selection_event(data, decomp, S_hat, criterion_spec,
                                skip_supersets=skip_supersets, policy=policy)
    sigma = estimate_sigma(data, S_hat, sigma_spec)
    lam = sigma * math.sqrt(decomp.eta_norm2)
    return truncated_cdf(
        decomp.eta_dot_y,
        TruncatedNormalSpec(mu=float(hypothesized_value), lam=lam,
                            region=event.region))
