"""Selection-event geometry along a one-dimensional direction.

Fixing a direction ``eta``, the response splits as
``y = (eta'y) * eta_tilde + z`` with ``z`` independent of ``eta'y`` under
spherical normal noise.  Each pairwise criterion comparison
"selected model beats competitor S" is then a quadratic inequality in the
scalar ``t = eta'y``, so the event "the criterion picks this model" is a
finite union of open intervals in ``t``.  This module builds those unions,
for every direction of a response in one pass and as padded rows of pieces,
with each comparison written around the observation (``u = t - eta'y``),
where its constant term is the observed score gap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from .intervals import MERGE_REL, IntervalUnion
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


@dataclass(frozen=True, eq=False)
class SelectionEvents(Sequence):
    """The events of ``selected`` along stacked directions: row ``i`` of the
    padded ``lo``/``hi`` is direction ``i``'s region, and item ``i`` its
    :class:`SelectionEvent`."""

    selected: IndexSet
    lo: np.ndarray  # (T, W)
    hi: np.ndarray
    comparisons: Tuple[Tuple[ComparisonRecord, ...], ...]

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i: int) -> SelectionEvent:
        region = IntervalUnion.from_row(self.lo[i], self.hi[i])
        return SelectionEvent(self.selected, region, self.comparisons[i])


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


def _forbidden(a2, a1, a0, scale2, scale1, shift):
    """Closed sets of ``s = shift + u`` where ``a2 u^2 + a1 u + a0 > 0`` fails.

    Each comparison yields at most two closed intervals, returned as (K, 2)
    arrays ``lo`` and ``hi`` in ``s``; unused slots hold ``lo = inf > hi = -inf``.
    ``scale2`` and ``scale1`` are the natural magnitudes of the leading and
    linear coefficients; values within ``LEAD_TOL`` of zero relative to them
    are treated as exact zeros.  ``shift`` holds each comparison's origin, so
    roots found in ``u`` come back in ``s``.
    """
    k = a2.shape[0]
    lo = np.full((k, 2), math.inf)
    hi = np.full((k, 2), -math.inf)
    quad = np.abs(a2) > LEAD_TOL * scale2
    lin = ~quad & (np.abs(a1) > LEAD_TOL * scale1)
    disc = a1 * a1 - 4.0 * a2 * a0
    two = np.flatnonzero(quad & (disc > 0.0))
    # both roots, cancellation-free: q = -(a1 + sign(a1) sqrt(disc)) / 2
    q = -0.5 * (a1[two] + np.copysign(np.sqrt(disc[two]), a1[two]))
    ra, rb = q / a2[two], a0[two] / q
    r1 = shift[two] + np.minimum(ra, rb)
    r2 = shift[two] + np.maximum(ra, rb)
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
    # linear: fails on the half-line where a1 u + a0 <= 0
    idx = np.flatnonzero(lin)
    t0 = shift[idx] - a0[idx] / a1[idx]
    rising = a1[idx] > 0.0
    lo[idx, 0] = np.where(rising, -math.inf, t0)
    hi[idx, 0] = np.where(rising, t0, math.inf)
    # everywhere: a downward parabola without real roots, or a
    # non-positive constant
    never = (quad & (a2 < 0.0) & ~(disc > 0.0)) | (~quad & ~lin & ~(a0 > 0.0))
    lo[never, 0] = -math.inf
    hi[never, 0] = math.inf
    return lo, hi


def _front(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           fill: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's entries where ``mask`` holds, moved to its front and
    padded with ``fill`` to the longest such row (at least 1)."""
    count = mask.sum(axis=1)
    r, k = np.nonzero(mask)
    col = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
    shape = (mask.shape[0], count.max(initial=1))
    out_lo, out_hi = np.full(shape, fill), np.full(shape, fill)
    out_lo[r, col], out_hi[r, col] = lo[r, k], hi[r, k]
    return out_lo, out_hi


def _allowed(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Open complement of each row's union of closed sets ``[lo, hi]``
    (empty where ``lo > hi``), as padded rows of its gaps.

    Each row's nonempty sets move to the front, padded with ``(-inf, -inf)``
    sets that change nothing; after one sort by left end, every left end
    beyond the running maximum of the right ends before it opens a gap.
    The gaps need no merge: ``_forbidden`` keeps a bounded set only if it is
    wider than the merge tolerance at its ends, so the sets between two gaps
    span more than that tolerance at their outer ends.
    """
    lo, hi = _front(lo <= hi, lo, hi, -math.inf)
    order = np.argsort(lo, axis=1, kind="stable")
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    edge = np.ones((lo.shape[0], 1))
    starts = np.hstack([-math.inf * edge, reach])
    ends = np.hstack([np.take_along_axis(lo, order, axis=1), math.inf * edge])
    return _front(starts < ends, starts, ends, 0.0)


def selection_event(
    data: Dataset,
    decomp: EtaDecomposition,
    S_hat: IndexSet,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
    keep_comparisons: bool = True,
) -> SelectionEvent:
    """Intersect all pairwise comparisons into the event region for ``S_hat``.

    Requires that ``S_hat`` actually is the criterion argmin for the response
    encoded in ``decomp``.  When ``eta`` lies in the selected model's column
    span, comparisons against strict supersets of that model are constant in
    ``t``, so they are recorded as skipped and left out of the intersection;
    outside the span they are ordinary comparisons.

    This is the one-direction case of :func:`selection_events`, which
    describes the construction.  ``keep_comparisons=False`` drops the
    per-comparison records (the region is unaffected); replication loops use
    it to avoid building thousands of record objects.
    """
    return selection_events(data, decomp.reconstruct(), decomp.eta[None, :],
                            S_hat, spec, policy, keep_comparisons)[0]


def selection_events(
    data: Dataset,
    y: np.ndarray,
    etas: np.ndarray,
    S_hat: IndexSet,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
    keep_comparisons: bool = True,
) -> SelectionEvents:
    """The selection event of ``S_hat`` along each row of the (T, n) ``etas``.

    Event ``i`` is that of ``selection_event(data, decompose(y, etas[i]),
    ...)``, and all of them come from one pass.  Along the line
    ``y + u * eta_tilde_i`` through the observation, with ``u = s - eta_i'y``,
    every candidate's RSS is ``rss_S(y) + 2 u b_Si + u^2 c2_Si``, where
    ``b_Si = (R_S eta_tilde_i)'(R_S y)`` and ``c2_Si = |R_S eta_tilde_i|^2``.
    One Gram kernel call over ``[y, eta_tilde_1, ..., eta_tilde_T]`` yields
    every coefficient; the constant term of each comparison is its observed
    score gap.  The roots of all T x (M - 1) comparisons are solved at once
    and shifted back by ``eta_i'y``, and each region is the complement of
    the union of its comparisons' closed failure sets, found by one
    row-wise sweep over every direction (one more gives each comparison's
    own region).  A direction in the selected span skips its strict-superset
    comparisons, which forbid nothing there.

    A failure raises what the first failing direction's own call would
    raise; no event is returned for the others.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != y.shape[0]:
        raise errors.DimensionMismatch(
            f"y has length {y.shape[0]}, etas have shape {etas.shape}")
    norm2 = np.einsum("tn,tn->t", etas, etas)
    zero = np.flatnonzero(norm2 == 0.0)
    if zero.size:
        # the directions before the first zero one still fail as their own
        # calls would
        if zero[0]:
            selection_events(data, y, etas[:zero[0]], S_hat, spec, policy,
                             keep_comparisons=False)
        raise errors.ZeroEta("eta must be nonzero")
    t = etas @ y
    cs = candidate_set(data, policy)
    try:
        hat = cs.index_of(S_hat)
    except errors.InputError:
        raise errors.NotSelectedModel(
            f"{S_hat} is not a candidate under the current policy") from None
    eta_tilde = etas / norm2[:, None]
    rss, b, c2 = cs.gram(y, eta_tilde)
    best = int(np.argmin(cs.score_rss(rss, spec)))
    if best != hat:
        raise errors.NotSelectedModel(
            f"criterion selects {cs.models[best]}, not {S_hat}, for this response")

    # |R_hat eta| = sqrt(c2[hat]) * |eta|^2 since eta_tilde = eta / |eta|^2
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
    # S_hat beats S along the line where rss_S > omega_S * rss_hat, with
    # rss_S(y + u eta_tilde) = rss_S(y) + 2 u b_S + u^2 c2_S: the constant
    # term is the observed score gap, which selecting S_hat made positive
    a2 = c2[:, idx] - np.outer(c2[:, hat], omegas)
    a1 = 2.0 * (b[:, idx] - np.outer(b[:, hat], omegas))
    a0 = np.tile(rss[idx] - omegas * rss[hat], len(t))
    et2 = np.einsum("tn,tn->t", eta_tilde, eta_tilde)
    scale2 = np.outer(et2, big)
    scale1 = np.outer(2.0 * np.sqrt(et2 * float(y @ y)), big)
    lo, hi = _forbidden(a2.ravel(), a1.ravel(), a0, scale2.ravel(),
                        scale1.ravel(), np.repeat(t, idx.size))
    # row i: direction i's failure sets, two slots per comparison
    lo, hi = lo.reshape(len(t), 2 * idx.size), hi.reshape(len(t), 2 * idx.size)
    if not all_in_span:
        # along a direction in the selected span a superset comparison is
        # constant in t: it is skipped and forbids nothing
        skip = np.logical_and.outer(in_span, np.repeat(superset[idx], 2))
        lo[skip], hi[skip] = math.inf, -math.inf
    region_lo, region_hi = _allowed(lo, hi)
    inside = (region_lo < t[:, None]) & (t[:, None] < region_hi)
    if not inside.any(axis=1).all():
        raise errors.InvariantViolation(
            "observed eta'y fell outside its own selection event; "
            "endpoints may be numerically degenerate")

    records: List[Tuple[ComparisonRecord, ...]] = [()] * len(t)
    if keep_comparisons:
        # one row per (direction, comparison): its two failure sets
        each_lo, each_hi = _allowed(lo.reshape(-1, 2), hi.reshape(-1, 2))
        row = np.full(len(cs), -1)
        row[idx] = np.arange(idx.size)
        for i, span in enumerate(in_span.tolist()):
            out = []
            for m, model in enumerate(cs.models):
                if m == hat:
                    continue
                if span and superset[m]:
                    out.append(ComparisonRecord(
                        competitor=model, region=None, skipped=True,
                        reason="superset of the selected model; constant in t"))
                else:
                    r = i * idx.size + row[m]
                    out.append(ComparisonRecord(
                        competitor=model,
                        region=IntervalUnion.from_row(each_lo[r], each_hi[r])))
            records[i] = tuple(out)
    return SelectionEvents(S_hat, region_lo, region_hi, tuple(records))
