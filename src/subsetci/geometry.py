"""Selection-event geometry along a one-dimensional direction.

Fixing a direction ``eta``, the response splits as
``y = (eta'y) * eta_tilde + z`` with ``z`` independent of ``eta'y`` under
spherical normal noise.  Each pairwise criterion comparison
"selected model beats competitor S" is then a quadratic inequality in the
scalar ``t = eta'y``, so the event "the criterion picks this model" is a
finite union of open intervals in ``t``.  This module builds those unions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import errors
from .criteria import (
    CandidatePolicy,
    CriterionSpec,
    DEFAULT_POLICY,
    candidate_set,
)
from .intervals import MERGE_REL, IntervalUnion, interval_union
from .linmodel import Dataset, IndexSet

# |leading coefficient| below LEAD_TOL times its natural scale is treated as
# zero; the scale is the Cauchy-Schwarz bound of the coefficient.
LEAD_TOL = 1e-10

# eta counts as lying in the selected model's column span when the residual
# projection leaves less than this fraction of its norm.
ETA_SPAN_TOL = 1e-8


@dataclass(frozen=True)
class EtaDecomposition:
    """Split of a response into its ``eta`` component and the rest."""

    eta: np.ndarray
    eta_tilde: np.ndarray
    eta_dot_y: float
    z: np.ndarray

    @property
    def eta_norm2(self) -> float:
        return float(self.eta @ self.eta)

    def reconstruct(self) -> np.ndarray:
        return self.eta_dot_y * self.eta_tilde + self.z


@dataclass(frozen=True)
class ComparisonRecord:
    competitor: IndexSet
    region: Optional[IntervalUnion]
    skipped: bool = False
    reason: Optional[str] = None


@dataclass(frozen=True)
class SelectionEvent:
    """The set of ``eta'y`` values under which ``selected`` wins."""

    selected: IndexSet
    region: IntervalUnion
    comparisons: Tuple[ComparisonRecord, ...]


def decompose(y: np.ndarray, eta: np.ndarray) -> EtaDecomposition:
    """Split ``y`` into ``(eta'y) * eta_tilde + z`` with ``eta'z = 0``."""
    y = np.asarray(y, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if y.shape != eta.shape:
        raise errors.DimensionMismatch(
            f"y has length {y.shape[0]}, eta has length {eta.shape[0]}")
    nrm2 = float(eta @ eta)
    if nrm2 == 0.0:
        raise errors.ZeroEta("eta must be nonzero")
    eta_tilde = eta / nrm2
    eta_dot_y = float(eta @ y)
    z = y - eta_dot_y * eta_tilde
    return EtaDecomposition(eta=eta, eta_tilde=eta_tilde,
                            eta_dot_y=eta_dot_y, z=z)


def _forbidden(a2, a1, a0, scale2, scale1, flat):
    """Closed sets of ``t`` where ``a2 t^2 + a1 t + a0 > 0`` fails.

    Each comparison yields at most two closed intervals, returned as (K, 2)
    arrays ``lo`` and ``hi``; unused slots hold ``lo = inf > hi = -inf``.
    ``scale2`` and ``scale1`` are the natural magnitudes of the leading and
    linear coefficients; values within ``LEAD_TOL`` of zero relative to them
    are treated as exact zeros.  Where ``flat`` is set the comparison is
    constant in ``t`` and only the sign of ``a0`` counts.
    """
    k = a2.shape[0]
    lo = np.full((k, 2), math.inf)
    hi = np.full((k, 2), -math.inf)
    quad = ~flat & (np.abs(a2) > LEAD_TOL * scale2)
    lin = ~flat & ~quad & (np.abs(a1) > LEAD_TOL * scale1)
    disc = a1 * a1 - 4.0 * a2 * a0
    two = np.flatnonzero(quad & (disc > 0.0))
    # both roots, cancellation-free: q = -(a1 + sign(a1) sqrt(disc)) / 2
    q = -0.5 * (a1[two] + np.copysign(np.sqrt(disc[two]), a1[two]))
    ra, rb = q / a2[two], a0[two] / q
    r1, r2 = np.minimum(ra, rb), np.maximum(ra, rb)
    up = a2[two] > 0.0
    # upward parabola: fails between its roots.  A gap no wider than the
    # interval merge tolerance is a floating-point sliver; the canonical
    # feasible set closes it, so it forbids nothing.
    wide = r2 - r1 > MERGE_REL * np.maximum(1.0, np.maximum(np.abs(r1), np.abs(r2)))
    between = up & wide
    lo[two[between], 0] = r1[between]
    hi[two[between], 0] = r2[between]
    # downward parabola: fails outside its roots
    down = two[~up]
    hi[down, 0] = r1[~up]
    lo[down, 0] = -math.inf
    lo[down, 1] = r2[~up]
    hi[down, 1] = math.inf
    # linear: fails on the half-line where a1 t + a0 <= 0
    idx = np.flatnonzero(lin)
    t0 = -a0[idx] / a1[idx]
    rising = a1[idx] > 0.0
    lo[idx, 0] = np.where(rising, -math.inf, t0)
    hi[idx, 0] = np.where(rising, t0, math.inf)
    # everywhere: a downward parabola without real roots, or a
    # non-positive constant
    never = (quad & (a2 < 0.0) & ~(disc > 0.0)) | (~quad & ~lin & ~(a0 > 0.0))
    lo[never, 0] = -math.inf
    hi[never, 0] = math.inf
    return lo, hi


def _allowed(lo: np.ndarray, hi: np.ndarray) -> IntervalUnion:
    """Open complement of the union of the closed intervals ``[lo, hi]``.

    One sort by left end and a running maximum of right ends: every left end
    beyond the reach of all intervals before it opens a gap.
    """
    keep = lo <= hi
    lo, hi = lo[keep], hi[keep]
    order = np.argsort(lo, kind="stable")
    starts = np.concatenate(([-math.inf], np.maximum.accumulate(hi[order])))
    ends = np.concatenate((lo[order], [math.inf]))
    gap = starts < ends
    return interval_union(zip(starts[gap].tolist(), ends[gap].tolist()))


def feasible_from_quadratic(
    a2: float, a1: float, a0: float, scale2: float, scale1: float
) -> IntervalUnion:
    """Solution set of ``a2 t^2 + a1 t + a0 > 0`` as an interval union.

    ``scale2`` and ``scale1`` are the natural magnitudes of the leading and
    linear coefficients; values within ``LEAD_TOL`` of zero relative to them
    are treated as exact zeros.
    """
    lo, hi = _forbidden(*(np.array([v], dtype=float)
                          for v in (a2, a1, a0, scale2, scale1)),
                        flat=np.zeros(1, dtype=bool))
    return _allowed(lo.ravel(), hi.ravel())


def selection_event(
    data: Dataset,
    decomp: EtaDecomposition,
    S_hat: IndexSet,
    spec: CriterionSpec,
    skip_supersets: bool = True,
    policy: CandidatePolicy = DEFAULT_POLICY,
    keep_comparisons: bool = True,
) -> SelectionEvent:
    """Intersect all pairwise comparisons into the event region for ``S_hat``.

    Requires that ``S_hat`` actually is the criterion argmin for the response
    encoded in ``decomp``.  With ``skip_supersets``, comparisons against
    strict supersets of the selected model are recorded but left out of the
    intersection: they are constant in ``t`` whenever ``eta`` lies in the
    selected span, so they cannot move the conditional distribution.

    Along ``y(t) = t * eta_tilde + z`` every candidate's RSS is the quadratic
    ``c2 t^2 + 2 c1 t + c0`` of residual inner products, so one Gram kernel
    call yields every comparison.  The region is the complement of the union
    of the comparisons' closed failure sets.

    ``keep_comparisons=False`` drops the per-comparison records (the region
    is unaffected); replication loops use it to avoid building thousands of
    record objects.
    """
    cs = candidate_set(data, policy)
    try:
        hat = cs.index_of(S_hat)
    except errors.InputError:
        raise errors.NotSelectedModel(
            f"{S_hat} is not a candidate under the current policy") from None
    c2, c1, c0 = cs.gram(decomp.eta_tilde, decomp.z)
    t = decomp.eta_dot_y
    scores = cs.score_rss(c2 * t * t + 2.0 * c1 * t + c0, spec)
    best = int(np.argmin(scores))
    if best != hat:
        raise errors.NotSelectedModel(
            f"criterion selects {cs.models[best]}, not {S_hat}, for this response")

    # |R_hat eta| = sqrt(c2[hat]) * |eta|^2 since eta_tilde = eta / |eta|^2
    eta_in_span = (math.sqrt(c2[hat]) * decomp.eta_norm2
                   <= ETA_SPAN_TOL * math.sqrt(decomp.eta_norm2))
    if skip_supersets and not eta_in_span:
        raise errors.EtaNotInSpan(
            "skipping superset comparisons is only valid when eta lies in "
            "the selected model's column span")

    penalties = cs.penalties(spec)
    omegas = np.exp((penalties[hat] - penalties) / spec.n)
    a2 = c2 - omegas * c2[hat]
    a1 = 2.0 * (c1 - omegas * c1[hat])
    a0 = c0 - omegas * c0[hat]
    et2 = float(decomp.eta_tilde @ decomp.eta_tilde)
    z2 = float(decomp.z @ decomp.z)
    big = np.maximum(1.0, omegas)
    scale2 = et2 * big
    scale1 = 2.0 * math.sqrt(et2 * z2) * big

    hat_mask = cs.masks[hat]
    superset = ((cs.masks & hat_mask) == hat_mask) & (cs.masks != hat_mask)
    active = np.ones(len(cs), dtype=bool)
    active[hat] = False
    if skip_supersets:
        active &= ~superset
    idx = np.flatnonzero(active)
    # with eta in the selected span a superset comparison does not involve t
    flat = superset[idx] & eta_in_span
    lo, hi = _forbidden(a2[idx], a1[idx], a0[idx], scale2[idx], scale1[idx], flat)
    region = _allowed(lo.ravel(), hi.ravel())

    records: List[ComparisonRecord] = []
    if keep_comparisons:
        row = np.full(len(cs), -1)
        row[idx] = np.arange(idx.size)
        for m, model in enumerate(cs.models):
            if m == hat:
                continue
            if row[m] < 0:
                records.append(ComparisonRecord(
                    competitor=model, region=None, skipped=True,
                    reason="superset of the selected model; constant in t"))
            else:
                records.append(ComparisonRecord(
                    competitor=model, region=_allowed(lo[row[m]], hi[row[m]])))

    if not region.contains(t):
        raise errors.InvariantViolation(
            "observed eta'y fell outside its own selection event; "
            "endpoints may be numerically degenerate")
    return SelectionEvent(selected=S_hat, region=region,
                          comparisons=tuple(records))


def superset_lower_bound(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    coefficient_index: int,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> float:
    """Lower bound on ``(eta'y)^2`` implied by beating the sub-models that
    drop ``coefficient_index``.

    For a coefficient direction, each comparison against a candidate
    contained in the selected model but missing the coefficient reduces to
    ``(eta'y)^2 > |eta|^2 (omega(S) z'P_hat z - z'P_S z)``; the bound is the
    max over that family, floored at zero (vacuously zero when the family is
    empty).
    """
    if coefficient_index not in S_hat:
        raise errors.IndexNotInModel(
            f"column {coefficient_index} not in selected model {S_hat}")
    cs = candidate_set(data, policy)
    hat = cs.index_of(S_hat)
    allowed = int(cs.masks[hat]) & ~(1 << (coefficient_index - 1))
    family = np.flatnonzero((cs.masks & ~allowed) == 0)
    if not family.size:
        return 0.0
    rss_z = cs.rss_all(decomp.z)
    penalties = cs.penalties(spec)
    omegas = np.exp((penalties[hat] - penalties[family]) / spec.n)
    best = max(0.0, float(np.max(omegas * rss_z[hat] - rss_z[family])))
    return decomp.eta_norm2 * best
