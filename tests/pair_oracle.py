"""Per-pair n-space comparison sets: an independent oracle for the geometry.

Each comparison "S_hat beats S" is formed from explicit length-n residual
projections (:func:`residual_project`) and solved one pair at a time with
scalar root-finding; the region is the sequential intersection of those sets
(:func:`intersect`).
The library builds the same region from p-dimensional Gram coefficients and a
single vectorized sweep, so agreement checks both the coefficient algebra and
the sweep.

The scalar normal interval masses at the end (``normal_measure``) are the
one-interval view of the library's log-measure kernel, used by tests only.
:func:`complement_bases` is the candidate engine's basis build done the
direct way, with one complete QR per model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from subsetci import errors
from subsetci.criteria import (
    CandidatePolicy,
    CriterionSpec,
    DEFAULT_POLICY,
    candidate_set,
    penalty_ratio_sizes,
)
from subsetci.geometry import ETA_SPAN_TOL, LEAD_TOL, EtaDecomposition
from subsetci.intervals import EMPTY, FULL_LINE, IntervalUnion, interval_union
from subsetci.linmodel import RANK_TOL, Dataset, IndexSet
from subsetci.truncnorm import _log_measure_std


def residual_project(data: Dataset, S: IndexSet, v: np.ndarray) -> np.ndarray:
    """Apply the residual-maker of ``S`` to ``v`` (no n-by-n matrix formed)."""
    data.validate_model(S)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != data.n:
        raise errors.DimensionMismatch(
            f"vector has length {v.shape[0]}, expected {data.n}")
    q, _ = data._qr_of(S.indices)
    return v - q @ (q.T @ v)


def complement_bases(data: Dataset, policy: CandidatePolicy
                     ) -> Tuple[List[IndexSet], List[np.ndarray]]:
    """Candidate models in canonical order and each one's complement basis,
    as the rows of a (p - |S|, p) block, from one complete-mode QR of
    ``R[:, S]`` per model, batched by width.

    Raises ``RankDeficient`` for the first model in canonical order whose
    |diag| of that QR falls below ``RANK_TOL`` times its largest.
    """
    forced, free = data.forced_indices, data.free_indices
    cap = len(free) if policy.max_size is None else min(policy.max_size, len(free))
    models = [IndexSet(tuple(sorted(forced + combo)))
              for k in range(0 if policy.include_empty else 1, cap + 1)
              for combo in itertools.combinations(free, k)]
    _, r = data._qr_of(data.full_model().indices)
    p = data.p
    blocks: List[np.ndarray] = []
    for width in sorted({len(m) for m in models}):
        group = [m for m in models if len(m) == width]
        if width == 0:
            blocks.extend(np.eye(p) for _ in group)
            continue
        cols = np.array([m.indices for m in group]) - 1
        q_s, r_s = np.linalg.qr(r[:, cols].transpose(1, 0, 2), mode="complete")
        d = np.abs(np.diagonal(r_s, axis1=1, axis2=2))
        floor = RANK_TOL * np.maximum(d.max(axis=1), np.finfo(float).tiny)
        bad = np.flatnonzero(d.min(axis=1) < floor)
        if bad.size:
            raise errors.RankDeficient(
                "submodel columns are collinear beyond tolerance",
                model=group[bad[0]])
        blocks.extend(q_s[:, :, width:].transpose(0, 2, 1))
    return models, blocks


def is_superset(S: IndexSet, S_hat: IndexSet) -> bool:
    return set(S.indices) >= set(S_hat.indices)


def intersect(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Intersection of two unions by a merge walk over their pieces."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a.intervals[i][0], b.intervals[j][0])
        hi = min(a.intervals[i][1], b.intervals[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a.intervals[i][1] < b.intervals[j][1]:
            i += 1
        else:
            j += 1
    return interval_union(out)


@dataclass(frozen=True)
class ComparisonQuadratic:
    """Coefficients of ``a2*t^2 + a1*t + a0 > 0`` for one pairwise comparison."""

    a2: float
    a1: float
    a0: float
    competitor: IndexSet


def _stable_roots(a2: float, a1: float, a0: float, disc: float) -> Tuple[float, float]:
    """Both roots of ``a2 t^2 + a1 t + a0`` for ``disc > 0``, cancellation-free."""
    sq = math.sqrt(disc)
    q = -0.5 * (a1 + math.copysign(sq, a1))
    r1 = q / a2
    r2 = a0 / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def scalar_feasible_set(
    a2: float, a1: float, a0: float, scale2: float, scale1: float
) -> IntervalUnion:
    """Solution set of ``a2 t^2 + a1 t + a0 > 0`` by scalar case analysis."""
    if abs(a2) > LEAD_TOL * scale2:
        disc = a1 * a1 - 4.0 * a2 * a0
        if a2 > 0.0:
            if disc <= 0.0:
                return FULL_LINE
            r1, r2 = _stable_roots(a2, a1, a0, disc)
            return interval_union([(-math.inf, r1), (r2, math.inf)])
        if disc <= 0.0:
            return EMPTY
        r1, r2 = _stable_roots(a2, a1, a0, disc)
        return interval_union([(r1, r2)])
    if abs(a1) > LEAD_TOL * scale1:
        t0 = -a0 / a1
        if a1 > 0.0:
            return interval_union([(t0, math.inf)])
        return interval_union([(-math.inf, t0)])
    return FULL_LINE if a0 > 0.0 else EMPTY


def _pair_scales(decomp: EtaDecomposition, omega: float) -> Tuple[float, float]:
    et2 = float(decomp.eta_tilde @ decomp.eta_tilde)
    z2 = float(decomp.z @ decomp.z)
    big = max(1.0, omega)
    return et2 * big, 2.0 * math.sqrt(et2 * z2) * big


def comparison_quadratic(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    S: IndexSet,
    spec: CriterionSpec,
) -> ComparisonQuadratic:
    """Quadratic in ``t`` whose positivity means ``S_hat`` beats ``S``."""
    if S == S_hat:
        raise errors.InputError("competitor must differ from the selected model")
    omega = penalty_ratio_sizes(data.free_size(S_hat), data.free_size(S), spec)
    p_eta_s = residual_project(data, S, decomp.eta_tilde)
    p_eta_hat = residual_project(data, S_hat, decomp.eta_tilde)
    p_z_s = residual_project(data, S, decomp.z)
    p_z_hat = residual_project(data, S_hat, decomp.z)
    a2 = float(p_eta_s @ p_eta_s) - omega * float(p_eta_hat @ p_eta_hat)
    a1 = 2.0 * (float(p_z_s @ p_eta_s) - omega * float(p_z_hat @ p_eta_hat))
    a0 = float(p_z_s @ p_z_s) - omega * float(p_z_hat @ p_z_hat)
    return ComparisonQuadratic(a2=a2, a1=a1, a0=a0, competitor=S)


def comparison_feasible_set(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    S: IndexSet,
    spec: CriterionSpec,
) -> IntervalUnion:
    """Exact set of ``t`` for which the criterion prefers ``S_hat`` over ``S``."""
    quad = comparison_quadratic(decomp, data, S_hat, S, spec)
    omega = penalty_ratio_sizes(data.free_size(S_hat), data.free_size(S), spec)
    scale2, scale1 = _pair_scales(decomp, omega)
    return scalar_feasible_set(quad.a2, quad.a1, quad.a0, scale2, scale1)


class EtaNotInSpan(errors.NumericalError):
    """A closed form that needs ``eta`` in the selected span was asked for a
    direction outside it."""


def eta_in_span(decomp: EtaDecomposition, data: Dataset, S_hat: IndexSet) -> bool:
    resid = residual_project(data, S_hat, decomp.eta)
    return float(np.linalg.norm(resid)) <= ETA_SPAN_TOL * math.sqrt(decomp.eta_norm2)


def require_eta_in_span(decomp: EtaDecomposition, data: Dataset, S_hat: IndexSet):
    if not eta_in_span(decomp, data, S_hat):
        raise EtaNotInSpan("eta must lie in the column span of the selected model")


def simplified_comparison(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    S: IndexSet,
    spec: CriterionSpec,
) -> IntervalUnion:
    """Feasible set using the closed form available when ``eta`` is in the
    selected model's column span.

    The leading coefficient reduces to ``|P_S eta_tilde|^2 >= 0``; competitors
    containing the selected model contribute a comparison that is constant in
    ``t`` (decided by ``z`` alone).
    """
    if S == S_hat:
        raise errors.InputError("competitor must differ from the selected model")
    require_eta_in_span(decomp, data, S_hat)
    omega = penalty_ratio_sizes(data.free_size(S_hat), data.free_size(S), spec)
    p_z_s = residual_project(data, S, decomp.z)
    p_z_hat = residual_project(data, S_hat, decomp.z)
    if is_superset(S, S_hat):
        a0 = float(p_z_s @ p_z_s) - omega * float(p_z_hat @ p_z_hat)
        return FULL_LINE if a0 > 0.0 else EMPTY
    p_eta_s = residual_project(data, S, decomp.eta_tilde)
    a2 = float(p_eta_s @ p_eta_s)
    a1 = 2.0 * float(p_z_s @ p_eta_s)
    a0 = float(p_z_s @ p_z_s) - omega * float(p_z_hat @ p_z_hat)
    scale2, scale1 = _pair_scales(decomp, omega)
    return scalar_feasible_set(a2, a1, a0, scale2, scale1)


def sequential_region(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    spec: CriterionSpec,
    skip_supersets: bool,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> IntervalUnion:
    """Intersection of the per-pair sets, one competitor at a time.

    Competitors containing ``S_hat`` are left out under ``skip_supersets``
    (which needs ``eta`` in the selected span); otherwise they give constant
    comparisons when ``eta`` lies in that span.
    """
    in_span = eta_in_span(decomp, data, S_hat)
    if skip_supersets and not in_span:
        raise EtaNotInSpan("skipping superset comparisons needs eta in the "
                           "column span of the selected model")
    region = FULL_LINE
    for S in candidate_set(data, policy).models:
        if S == S_hat:
            continue
        if is_superset(S, S_hat) and skip_supersets:
            continue
        if is_superset(S, S_hat) and in_span:
            piece = simplified_comparison(decomp, data, S_hat, S, spec)
        else:
            piece = comparison_feasible_set(decomp, data, S_hat, S, spec)
        region = intersect(region, piece)
    return region


def superset_lower_bound(
    decomp: EtaDecomposition,
    data: Dataset,
    S_hat: IndexSet,
    coefficient_index: int,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> float:
    """Bound on ``(eta'y)^2`` from the sub-models of ``S_hat`` that drop
    ``coefficient_index``, one n-space projection per sub-model."""
    p_z_hat = residual_project(data, S_hat, decomp.z)
    h0 = float(p_z_hat @ p_z_hat)
    k_hat = data.free_size(S_hat)
    allowed = set(S_hat.indices) - {coefficient_index}
    best = 0.0
    found = False
    for model in candidate_set(data, policy).models:
        if model == S_hat or not set(model.indices) <= allowed:
            continue
        omega = penalty_ratio_sizes(k_hat, data.free_size(model), spec)
        p_z_s = residual_project(data, model, decomp.z)
        best = max(best, omega * h0 - float(p_z_s @ p_z_s))
        found = True
    return decomp.eta_norm2 * best if found else 0.0


def outside_bound(region: IntervalUnion, bound: float, eta_norm2: float) -> bool:
    """Whether no point of ``region`` has ``t^2`` below ``bound``, up to
    rounding relative to ``bound`` and to ``|eta|^2``."""
    r = math.sqrt(max(0.0, bound * (1.0 - 1e-9) - 1e-12 * eta_norm2))
    return intersect(region, interval_union([(-r, r)])).is_empty


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
