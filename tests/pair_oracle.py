"""Per-pair n-space comparison sets: an independent oracle for the geometry.

Each comparison "S_hat beats S" is formed from explicit length-n residual
projections (:func:`residual_project`) and solved one pair at a time with
scalar root-finding; the region is the sequential intersection of those sets
(:func:`intersect`).
The library builds the same region from p-dimensional Gram coefficients and a
single vectorized sweep, so agreement checks both the coefficient algebra and
the sweep.

:func:`allowed_row` is the sweep done one region at a time, with the
merge of ``interval_union``, and :func:`padded_allowed` the sweep done on
padded rows, one sort per row, as the library did before its sweep ran
over flat entries segmented by row.
:func:`unscreened_event_rows` is the library's batched sweep without its
screen: it solves every comparison, including those that cannot fail.
:func:`gathered_comparisons` is the library's cut as it was formed before it
ran over the whole candidate row: the active candidates' coefficients
gathered first, the selected model's strict supersets left out up front when
every direction lies in the selected span.
:func:`penalty_ratio_sizes` is one comparison's threshold on the ratio of
residual sums of squares, from the two models' sizes.
:func:`two_half_log_cdf` is the piece table's log CDF from padded rows, with
every piece evaluated twice, once whole and once clipped at the observation,
by the padded kernel the table once ran (:func:`_log_measure_std`, both
formulas on every element, and :func:`_logsumexp_rows`).
The scalar normal interval masses at the end (``normal_measure``) are the
one-interval view of that kernel, used by tests only.
:func:`complement_bases` is the candidate engine's basis build done the
direct way, with one complete QR per model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import erf, log_ndtr

from subsetci import errors
from subsetci.criteria import (
    CandidatePolicy,
    CriterionSpec,
    DEFAULT_POLICY,
    candidate_set,
)
from subsetci.geometry import (
    ETA_SPAN_TOL,
    LEAD_TOL,
    Comparisons,
    EtaDecomposition,
    _forbidden,
    _scaled_directions,
    _strict_supersets,
)
from subsetci.intervals import EMPTY, FULL_LINE, IntervalUnion, interval_union
from subsetci.linmodel import RANK_TOL, Dataset, IndexSet


def penalty_ratio_sizes(size_tilde: int, size: int, spec: CriterionSpec) -> float:
    """Threshold on ``rss(S)/rss(S_tilde)`` above which ``S_tilde`` wins,
    for models with ``size_tilde`` and ``size`` free columns."""
    return math.exp((spec.penalty(size_tilde) - spec.penalty(size)) / spec.n)


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


def allowed_row(lo: np.ndarray, hi: np.ndarray) -> IntervalUnion:
    """Open complement of the union of the closed intervals ``[lo, hi]``
    (empty where ``lo > hi``), one row at a time and canonicalized by
    ``interval_union``'s merge: the reference for the library's row-wise
    sweep, which never merges."""
    keep = lo <= hi
    lo, hi = lo[keep], hi[keep]
    order = np.argsort(lo, kind="stable")
    starts = np.concatenate(([-math.inf], np.maximum.accumulate(hi[order])))
    ends = np.concatenate((lo[order], [math.inf]))
    gap = starts < ends
    return interval_union(zip(starts[gap].tolist(), ends[gap].tolist()))


# The padded log-measure kernel the piece table once evaluated on every
# column of every row: both formulas on every element, selected with no
# branch on the data, and a row-wise sum over the columns in order.

def _log1mexp(d: np.ndarray) -> np.ndarray:
    """log(1 - exp(d)) for d <= 0, both branches evaluated everywhere."""
    return np.where(d > -math.log(2.0), np.log(-np.expm1(d)), np.log1p(-np.exp(d)))


def _log_measure_std(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log P(a < Z < b) for standard normal Z, elementwise; -inf where b <= a.

    A piece below the mean is reflected, ``(a, b) -> (-b, -a)``, so that one
    upper-tail formula serves both tails; pieces straddling the mean use the
    two nonnegative half-``erf`` terms.
    """
    with np.errstate(all="ignore"):
        reflect = b <= 0.0
        lo = np.where(reflect, -b, a)
        hi = np.where(reflect, -a, b)
        neg_lo = -lo
        la = log_ndtr(neg_lo)
        lb = log_ndtr(-hi)
        tail = np.where(la == -np.inf, -np.inf, la + _log1mexp(lb - la))
        straddle = np.log(0.5 * (erf(hi / math.sqrt(2.0)) + erf(neg_lo / math.sqrt(2.0))))
        return np.where(b > a, np.where(lo >= 0.0, tail, straddle), -np.inf)


def _logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    """log of the row sums of ``exp(logs)``, -inf for rows without mass,
    the columns accumulated one at a time."""
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


def unscreened_event_rows(
    data: Dataset,
    y: np.ndarray,
    etas: np.ndarray,
    S_hat: IndexSet,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> Tuple[np.ndarray, np.ndarray]:
    """The padded region rows of ``selection_events(data, y, etas, ...)``
    for valid input, with every comparison solved: each direction's row
    holds its comparisons' failure sets, a skipped superset comparison's
    left out, for the one padded sweep.  Each direction is solved scaled by
    the power of two that brings its largest entry into [1/2, 1), where the
    sliver floor is measured, and its row scaled back."""
    _, exp = np.frexp(np.abs(etas).max(axis=1))
    etas = np.ldexp(etas, -exp[:, None])
    norm2 = np.einsum("tn,tn->t", etas, etas)
    t = etas @ y
    cs = candidate_set(data, policy)
    hat = cs.index_of(S_hat)
    eta_tilde = etas / norm2[:, None]
    rss, b, c2 = cs.gram(y, eta_tilde)
    in_span = np.sqrt(c2[:, hat]) * norm2 <= ETA_SPAN_TOL * np.sqrt(norm2)
    hat_mask = cs.masks[hat]
    superset = ((cs.masks & hat_mask) == hat_mask) & (cs.masks != hat_mask)
    active = np.ones(len(cs), dtype=bool)
    active[hat] = False
    all_in_span = bool(in_span.all())
    if all_in_span:
        active &= ~superset
    idx = np.flatnonzero(active)
    penalties = cs.penalties(spec)
    omegas = np.exp((penalties[hat] - penalties[idx]) / spec.n)
    big = np.maximum(1.0, omegas)
    a2 = c2[:, idx] - np.outer(c2[:, hat], omegas)
    a1 = 2.0 * (b[:, idx] - np.outer(b[:, hat], omegas))
    a0 = np.tile(rss[idx] - omegas * rss[hat], len(t))
    et2 = np.einsum("tn,tn->t", eta_tilde, eta_tilde)
    scale2 = np.outer(et2, big)
    scale1 = np.outer(2.0 * np.sqrt(et2 * float(y @ y)), big)
    owner, lo, hi = _forbidden(a2.ravel(), a1.ravel(), a0, scale2.ravel(),
                               scale1.ravel(), np.repeat(t, idx.size))
    row, col = np.divmod(owner, idx.size)
    keep = ~(in_span[row] & superset[idx[col]])
    order = np.argsort(row[keep], kind="stable")
    lo, hi = _pack_rows(row[keep][order], lo[keep][order], hi[keep][order],
                        len(t), -math.inf)
    return tuple(np.ldexp(side, exp[:, None]) for side in padded_allowed(lo, hi))


def gathered_comparisons(
    data: Dataset,
    y: np.ndarray,
    etas: np.ndarray,
    S_hat: IndexSet,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> Comparisons:
    """``cut_comparisons(data, y, etas, S_hat, spec, policy)`` for a response
    that selects ``S_hat``, formed over the gathered columns ``idx`` of the
    active candidates: every candidate but ``S_hat``, less its strict
    supersets when every accepted direction lies in the selected span; with
    some direction off the span, a second mask leaves the supersets out of
    the in-span directions' rows."""
    y = np.asarray(y, dtype=float).reshape(-1)
    scaled, exp, t, kept = _scaled_directions(y, etas)
    scaled, exp, t = scaled[kept], exp[kept], t[kept]
    norm2 = np.einsum("tn,tn->t", scaled, scaled)
    cs = candidate_set(data, policy)
    hat = cs.index_of(S_hat)
    eta_tilde = scaled / norm2[:, None]
    rss, b, c2 = cs.gram(y, eta_tilde)
    in_span = np.sqrt(c2[:, hat]) * norm2 <= ETA_SPAN_TOL * np.sqrt(norm2)
    superset = _strict_supersets(cs, hat)
    active = np.ones(len(cs), dtype=bool)
    active[hat] = False
    all_in_span = bool(in_span.all())
    if all_in_span:
        active &= ~superset
    idx = np.flatnonzero(active)
    penalties = cs.penalties(spec)
    omegas = np.exp((penalties[hat] - penalties[idx]) / spec.n)
    big = np.maximum(1.0, omegas)
    a2 = c2[:, idx] - np.outer(c2[:, hat], omegas)
    a1 = 2.0 * (b[:, idx] - np.outer(b[:, hat], omegas))
    a0 = rss[idx] - omegas * rss[hat]
    et2 = np.einsum("tn,tn->t", eta_tilde, eta_tilde)
    scale2 = np.outer(et2, big)
    cut = ~(a2 > LEAD_TOL * scale2) | (a1 * a1 - 4.0 * a2 * a0 > 0.0)
    if not all_in_span:
        cut &= ~np.logical_and.outer(in_span, superset[idx])
    k = np.flatnonzero(cut)
    r, c = np.divmod(k, idx.size)
    scale1 = 2.0 * np.sqrt(et2 * float(y @ y))
    return Comparisons(kept, t, np.linalg.norm(scaled, axis=1), exp, in_span, r,
                       idx[c], a2.take(k), a1.take(k), a0[c], scale2.take(k),
                       scale1[r] * big[c])


def _pack_rows(r: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows: int,
               fill: float) -> Tuple[np.ndarray, np.ndarray]:
    """Entries ``lo``/``hi`` of rows ``r`` (nondecreasing), each row's at its
    front in order, padded with ``fill`` to the longest row (at least 1)."""
    count = np.bincount(r, minlength=rows)
    col = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
    shape = (rows, count.max(initial=1))
    out_lo, out_hi = np.full(shape, fill), np.full(shape, fill)
    out_lo[r, col], out_hi[r, col] = lo, hi
    return out_lo, out_hi


def padded_allowed(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Open complement of each row's union of closed sets ``[lo, hi]``
    (empty where ``lo > hi``) of the (rows, K) arrays, as padded rows of its
    gaps, from padded rows: each row's nonempty sets move to the front,
    padded with ``(-inf, -inf)`` sets that change nothing; after one sort
    by left end, every left end beyond the running maximum of the right ends
    before it opens a gap."""
    r, k = np.nonzero(lo <= hi)
    lo, hi = _pack_rows(r, lo[r, k], hi[r, k], len(lo), -math.inf)
    order = np.argsort(lo, axis=1, kind="stable")
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    edge = np.ones((lo.shape[0], 1))
    starts = np.hstack([-math.inf * edge, reach])
    ends = np.hstack([np.take_along_axis(lo, order, axis=1), math.inf * edge])
    r, k = np.nonzero(starts < ends)
    return _pack_rows(r, starts[r, k], ends[r, k], len(lo), 0.0)


def two_half_log_cdf(x: np.ndarray, lam: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, mu: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``PieceTable(x, lam, lo, hi).log_cdf(mu)`` from a table of both
    halves: the W pieces for the denominator, then the same pieces clipped
    at ``x`` for the numerator, each half reduced as rows of width W."""
    width = lo.shape[1]
    lo2 = np.hstack([lo, lo])
    hi2 = np.hstack([hi, np.minimum(hi, x[:, None])])
    shift, scale = mu[:, None], lam[:, None]
    with np.errstate(all="ignore"):
        logs = _log_measure_std((lo2 - shift) / scale, (hi2 - shift) / scale)
        sums = _logsumexp_rows(logs.reshape(-1, width))
        logden, lognum = sums[0::2], sums[1::2]
        return np.minimum(lognum - logden, 0.0), ~(logden > -np.inf)
