"""Selection-event geometry along a one-dimensional direction.

Fixing a direction ``eta``, the response splits as
``y = (eta'y) * eta_tilde + z`` with ``z`` independent of ``eta'y`` under
spherical normal noise.  Each pairwise criterion comparison
"selected model beats competitor S" is then a quadratic inequality in the
scalar ``t = eta'y``, so the event "the criterion picks this model" is a
finite union of open intervals in ``t``.  This module builds those unions
as padded rows of pieces, with each comparison written around the
observation (``u = t - eta'y``), where its constant term is the observed
score gap.  It does so in two stages: :func:`cut_comparisons` keeps the
comparisons of one response's directions that can fail, and
:func:`event_regions` solves and sweeps those of a whole batch of responses
at once.

:func:`_scaled_directions` checks every direction, for every caller alike,
and scales it by a power of two; :func:`_accepted` names the error of a
direction it refuses.  A direction's lengths, tolerances and ``eta'y`` are
formed in that scaled coordinate, so a direction scaled by ``2**k`` has its
event scaled by ``2**k``, exactly.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple, Union

import numpy as np

from . import errors
from .criteria import CandidateSet, CriterionSpec, candidate_set
from .intervals import FULL_LINE, MERGE_REL, IntervalUnion
from .linmodel import Dataset, IndexSet, _require_finite_response

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
        norm = math.hypot(*self.eta)  # without overflow or underflow
        return norm * norm

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
    """The set of ``eta'y`` values under which ``selected`` wins, cut along
    ``eta`` through the response whose part orthogonal to ``eta`` is ``z``
    (each ``None`` when unknown; both left out of ``==``)."""

    selected: IndexSet
    region: IntervalUnion
    comparisons: Tuple[ComparisonRecord, ...]
    eta: Optional[np.ndarray] = field(default=None, compare=False)
    z: Optional[np.ndarray] = field(default=None, compare=False)


# a direction whose largest entry is below 2**(MIN_ETA_EXP - 1) (a subnormal)
# has an eta / |eta|^2 beyond the largest float
MIN_ETA_EXP = -1021


def _scaled_directions(
    y: np.ndarray, etas: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(unit, exp, t, ok)`` of the (T, n) stack ``etas`` through ``y``:
    each direction times the power of two ``2**-exp`` that brings its
    largest entry into [1/2, 1), and its ``t = unit @ y``.  The scaling is
    exact, so its ``eta'y`` is ``ldexp(t, exp)`` and its length
    ``ldexp(|unit|, exp)``.

    A non-finite ``y`` raises ``InputError``.  ``ok`` accepts each direction
    that is finite, nonzero and not too small, and whose ``eta'y`` does not
    overflow; :func:`_accepted` names a refused one's error.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != y.shape[0]:
        raise errors.DimensionMismatch(
            f"y has length {y.shape[0]}, etas have shape {etas.shape}")
    _require_finite_response(y)
    top = np.abs(etas).max(axis=1, initial=0.0)
    _, exp = np.frexp(top)
    unit = np.ldexp(etas, -exp[:, None])
    with np.errstate(all="ignore"):
        t = unit @ y
        ok = ((top > 0.0) & (top < math.inf) & (exp >= MIN_ETA_EXP)
              & (np.abs(np.ldexp(t, exp)) < math.inf))
    return unit, exp, t, ok


def _accepted(
    unit: np.ndarray, exp: np.ndarray, t: np.ndarray, ok: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unit, exp, t)`` of :func:`_scaled_directions` when it accepts every
    direction; else the first refused direction's error: non-finite, zero
    (``ZeroEta``), too small, or an ``eta'y`` that overflows."""
    if not ok.all():
        i = int(np.argmin(ok))
        # a non-finite or zero direction is left unscaled (frexp gives 0)
        if not np.isfinite(unit[i]).all():
            raise errors.InputError("eta holds a non-finite value")
        if not unit[i].any():
            raise errors.ZeroEta("eta must be nonzero")
        if exp[i] < MIN_ETA_EXP:
            raise errors.InputError("eta is too small: eta / |eta|^2 overflows")
        raise errors.InputError("eta'y overflows")
    return unit, exp, t


def measure(y: np.ndarray, etas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(eta'y, |eta|)`` of each row of the (T, n) ``etas`` through ``y``,
    formed by :func:`_scaled_directions` and refused by :func:`_accepted`."""
    return _measured(*_accepted(*_scaled_directions(y, etas)))


def _measured(unit: np.ndarray, exp: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`measure`'s ``(eta'y, |eta|)`` from :func:`_scaled_directions`."""
    return np.ldexp(t, exp), np.ldexp(np.linalg.norm(unit, axis=1), exp)


def _strict_supersets(cs: CandidateSet, hat: int) -> np.ndarray:
    """Mask of the candidates that strictly contain candidate ``hat``."""
    hat_mask = cs.masks[hat]
    return ((cs.masks & hat_mask) == hat_mask) & (cs.masks != hat_mask)


def decompose(y: np.ndarray, eta: np.ndarray) -> EtaDecomposition:
    """Split ``y`` into ``(eta'y) * eta_tilde + z`` with ``eta'z = 0``, with
    ``eta`` measured by :func:`_scaled_directions` and refused by
    :func:`_accepted`."""
    y = np.asarray(y, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    unit, exp, t = _accepted(*_scaled_directions(y, eta[None, :]))
    eta_tilde, z = _split(y, unit)
    return EtaDecomposition(eta=eta, eta_tilde=np.ldexp(eta_tilde[0], -exp[0]),
                            eta_dot_y=float(np.ldexp(t[0], exp[0])), z=z[0])


def _split(y: np.ndarray, unit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The scaled ``eta_tilde = unit / |unit|^2`` of each direction and the
    response's part ``z`` orthogonal to it, from each row's own ``unit'y``
    (a stack's matrix product rounds a row by its position)."""
    eta_tilde = unit / np.einsum("tn,tn->t", unit, unit)[:, None]
    return eta_tilde, y - np.einsum("tn,n->t", unit, y)[:, None] * eta_tilde


def _forbidden(a2, a1, a0, scale2, scale1, shift):
    """Closed sets of ``s = shift + u`` where ``a2 u^2 + a1 u + a0 > 0`` fails.

    Each comparison yields at most two closed intervals.  They are returned
    as flat entries ``(owner, lo, hi)`` in ``s``, in no particular order:
    only the nonempty ones (``lo <= hi``), each with its comparison's
    position ``owner``.
    ``scale2`` and ``scale1`` are the natural magnitudes of the leading and
    linear coefficients; values within ``LEAD_TOL`` of zero relative to them
    are treated as exact zeros.  ``shift`` holds each comparison's origin, so
    roots found in ``u`` come back in ``s``, the coordinate the merge
    tolerance is measured in.
    """
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
    # merge tolerance at its ends, in the scaled coordinate (so whatever the
    # direction's own scale), is a floating-point sliver: it forbids nothing.
    wide = r2 - r1 > MERGE_REL * np.maximum(1.0, np.maximum(np.abs(r1), np.abs(r2)))
    between = up & wide
    # downward parabola: fails outside its roots
    down = two[~up]
    far = np.full(down.size, math.inf)
    # linear: fails on the half-line where a1 u + a0 <= 0
    idx = np.flatnonzero(lin)
    t0 = shift[idx] - a0[idx] / a1[idx]
    rising = a1[idx] > 0.0
    # everywhere: a downward parabola without real roots, or a
    # non-positive constant
    never = np.flatnonzero((quad & (a2 < 0.0) & ~(disc > 0.0))
                           | (~quad & ~lin & ~(a0 > 0.0)))
    line = np.full(never.size, math.inf)
    owner = np.concatenate([two[between], down, down, idx, never])
    lo = np.concatenate([r1[between], -far, r2[~up],
                         np.where(rising, -math.inf, t0), -line])
    hi = np.concatenate([r2[between], r1[~up], far,
                         np.where(rising, t0, math.inf), line])
    return owner, lo, hi


def _allowed(row: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Open complement of each row's union of closed sets ``[lo, hi]``,
    given as flat entries of rows ``row``, each nonempty (``lo <= hi``) and
    in any order, as ``rows`` padded rows of its gaps (at least one column).

    Every row gains a set ``[inf, inf]`` that closes it; after one sort by
    row and left end, every left end beyond the running maximum of the right
    ends before it in its row opens a gap.  The running maximum restarts at
    each row because it runs over ``row * N + rank(hi)`` among N sets.  The
    gaps need no merge: ``_forbidden`` keeps a bounded set only if it is
    wider than the merge tolerance at its ends, so the sets between two
    gaps span more than that tolerance at their outer ends.
    """
    row = np.concatenate([row, np.arange(rows)])
    lo = np.concatenate([lo, np.full(rows, math.inf)])
    hi = np.concatenate([hi, np.full(rows, math.inf)])
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order], hi[order]
    by_hi = np.argsort(hi)
    rank = np.empty_like(by_hi)
    rank[by_hi] = np.arange(row.size)
    offset = row * row.size
    reach = hi[by_hi[np.maximum.accumulate(offset + rank) - offset]]
    starts = np.empty_like(reach)
    starts[1:] = reach[:-1]
    starts[:1] = -math.inf
    starts[1:][row[1:] != row[:-1]] = -math.inf
    gap = starts < lo
    # each row's gaps at its front, in order, then (0, 0) padding
    r = row[gap]
    count = np.bincount(r, minlength=rows)
    col = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
    out_lo, out_hi = np.zeros((2, rows, count.max(initial=1)))
    out_lo[r, col], out_hi[r, col] = starts[gap], lo[gap]
    return out_lo, out_hi


@dataclass(frozen=True, eq=False)
class Comparisons:
    """One response's comparisons that can fail, cut along the K of its
    directions that :func:`_scaled_directions` accepts.

    ``kept`` marks those K among the directions asked for.  Direction ``i``
    (of the K) is scaled by ``2**-exp[i]``.  ``t`` and ``length`` hold each
    scaled direction's ``eta'y`` and ``|eta|``; solved comparison ``j``
    belongs to direction ``row[j]``, is against candidate ``model[j]``, and
    holds where ``a2 u^2 + a1 u + a0 > 0`` with ``u = s - t[row[j]]``, in
    the scaled direction's coordinate ``s``.
    ``in_span`` marks the directions in the selected model's column span.
    """

    kept: np.ndarray  # (T,) bool
    t: np.ndarray  # (K,)
    length: np.ndarray  # (K,)
    exp: np.ndarray  # (K,)
    in_span: np.ndarray  # (K,)
    row: np.ndarray  # (k,)
    model: np.ndarray  # (k,)
    a2: np.ndarray  # (k,)
    a1: np.ndarray
    a0: np.ndarray
    scale2: np.ndarray
    scale1: np.ndarray

    @property
    def measurement(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each direction's ``eta'y`` and ``|eta|``, as :func:`measure` gives."""
        return np.ldexp(self.t, self.exp), np.ldexp(self.length, self.exp)

    @functools.cached_property
    def failure_sets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every solved comparison's nonempty closed failure sets, in the
        scaled coordinates, as :func:`_forbidden`'s ``(owner, lo, hi)``."""
        return _forbidden(self.a2, self.a1, self.a0, self.scale2, self.scale1,
                          self.t[self.row])


def selection_event(
    data: Dataset,
    decomp: EtaDecomposition,
    S_hat: IndexSet,
    spec: CriterionSpec,
) -> SelectionEvent:
    """Intersect all pairwise comparisons into the event region for ``S_hat``.

    Requires that ``S_hat`` actually is the criterion argmin for the response
    encoded in ``decomp``.  When ``eta`` lies in the selected model's column
    span, comparisons against strict supersets of that model are constant in
    ``t``, so they are recorded as skipped and left out of the intersection;
    outside the span they are ordinary comparisons.

    This is the one-direction case of :func:`selection_events`, which
    describes the construction.
    """
    return selection_events(data, decomp.reconstruct(), decomp.eta[None, :],
                            S_hat, spec)[0]


def selection_events(
    data: Dataset,
    y: np.ndarray,
    etas: np.ndarray,
    S_hat: IndexSet,
    spec: CriterionSpec,
) -> Tuple[SelectionEvent, ...]:
    """The selection event of ``S_hat`` along each row of the (T, n) ``etas``.

    Event ``i`` is that of ``selection_event(data, decompose(y, etas[i]),
    ...)``.  All of them come from the two stages a coverage study runs over
    a block of responses, here for one response: :func:`cut_comparisons`
    forms and screens the comparisons, and the sweep of
    :func:`event_regions` turns their failure sets into the regions.  A
    second sweep of the same failure sets, each comparison's alone, gives
    the comparison records.

    A batch with a refused direction raises the first refused direction's
    own error (:func:`_accepted`), whatever the model or the other
    directions would raise; any other failure is the one that direction's
    own call raises.  No event is returned for the others.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    etas = np.asarray(etas, dtype=float)
    # a refused direction fails the batch with its own error, before any
    # error of the model; the stack is measured again on these paths only
    try:
        cut = cut_comparisons(data, y, etas, S_hat, spec)
    except errors.SubsetCIError:
        _accepted(*_scaled_directions(y, etas))
        raise
    if not cut.kept.all():
        _accepted(*_scaled_directions(y, etas))
    (region,) = _regions(cut, [len(cut.t)])
    if isinstance(region, errors.InvariantViolation):
        raise region
    lo, hi = region
    cs = candidate_set(data)
    hat = cs.index_of(S_hat)
    superset = _strict_supersets(cs, hat)
    # each solved comparison's own region; a comparison left unsolved fails
    # nowhere
    each_lo, each_hi = _scaled_back(*_allowed(*cut.failure_sets, len(cut.row)),
                                    cut.exp[cut.row])
    _, z = _split(y, np.ldexp(etas, -cut.exp[:, None]))
    events = []
    for i, eta in enumerate(etas):
        mine = np.flatnonzero(cut.row == i)
        row = dict(zip(cut.model[mine].tolist(), mine.tolist()))
        skipped = (superset & cut.in_span[i]).tolist()
        records = tuple(
            ComparisonRecord(model, None, True,
                             "superset of the selected model; constant in t")
            if skipped[m] else
            ComparisonRecord(model, IntervalUnion.from_row(each_lo[row[m]],
                                                           each_hi[row[m]])
                             if m in row else FULL_LINE)
            for m, model in enumerate(cs.models) if m != hat)
        events.append(SelectionEvent(S_hat, IntervalUnion.from_row(lo[i], hi[i]),
                                     records, eta, z[i]))
    return tuple(events)


def cut_comparisons(
    data: Dataset,
    y: np.ndarray,
    etas: np.ndarray,
    S_hat: IndexSet,
    spec: CriterionSpec,
) -> Comparisons:
    """The comparisons of ``S_hat`` that can fail along each row of the
    (T, n) ``etas`` through ``y``: the per-response stage of
    :func:`selection_events`.

    Each direction is first scaled by a power of two (see
    :class:`Comparisons`).  Along the line ``y + u * eta_tilde_i`` through
    the observation, with ``u = s - eta_i'y``, every candidate's RSS is
    ``rss_S(y) + 2 u b_Si + u^2 c2_Si``, where
    ``b_Si = (R_S eta_tilde_i)'(R_S y)`` and ``c2_Si = |R_S eta_tilde_i|^2``.
    One Gram kernel call over ``[y, eta_tilde_1, ..., eta_tilde_T]`` yields
    every coefficient; the constant term of each comparison is its observed
    score gap.  Of the K x (M - 1) comparisons, formed over the whole (K, M)
    candidate row, only those that can fail are kept, in that order: an
    upward parabola without a real root fails nowhere, and a direction in
    the selected span skips its strict-superset comparisons.

    Only the K directions that :func:`_scaled_directions` accepts are cut;
    ``kept`` marks them, and a refused one is left out without an error.
    Raises for a non-finite response and a response for which the criterion
    does not select ``S_hat``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    scaled, exp, t, kept = _scaled_directions(y, etas)
    scaled, exp, t = scaled[kept], exp[kept], t[kept]
    norm2 = np.einsum("tn,tn->t", scaled, scaled)
    cs = candidate_set(data)
    try:
        hat = cs.index_of(S_hat)
    except errors.InputError:
        raise errors.NotSelectedModel(
            f"{S_hat} is not a candidate") from None
    eta_tilde = scaled / norm2[:, None]
    rss, b, c2 = cs.gram(y, eta_tilde)
    best = int(np.argmin(cs.score_rss(rss, spec)))
    if best != hat:
        raise errors.NotSelectedModel(
            f"criterion selects {cs.models[best]}, not {S_hat}, for this response")

    # |R_hat eta| = sqrt(c2[hat]) * |eta|^2 since eta_tilde = eta / |eta|^2
    in_span = np.sqrt(c2[:, hat]) * norm2 <= ETA_SPAN_TOL * np.sqrt(norm2)
    penalties = cs.penalties(spec)
    omegas = np.exp((penalties[hat] - penalties) / spec.n)
    big = np.maximum(1.0, omegas)
    # S_hat beats S along the line where rss_S > omega_S * rss_hat, with
    # rss_S(y + u eta_tilde) = rss_S(y) + 2 u b_S + u^2 c2_S: the constant
    # term is the observed score gap, which selecting S_hat made positive
    a2 = c2 - np.outer(c2[:, hat], omegas)
    a1 = 2.0 * (b - np.outer(b[:, hat], omegas))
    a0 = rss - omegas * rss[hat]
    et2 = np.einsum("tn,tn->t", eta_tilde, eta_tilde)
    scale2 = np.outer(et2, big)
    # only comparisons that can fail are kept: an upward parabola without
    # a real root fails nowhere, and along a direction in the selected span
    # a superset comparison is constant in t, so it is skipped
    cut = ~(a2 > LEAD_TOL * scale2) | (a1 * a1 - 4.0 * a2 * a0 > 0.0)
    cut &= ~np.logical_and.outer(in_span, _strict_supersets(cs, hat))
    cut[:, hat] = False
    k = np.flatnonzero(cut)
    r, c = np.divmod(k, len(cs))
    scale1 = 2.0 * np.sqrt(et2 * float(y @ y))
    return Comparisons(kept, t, np.linalg.norm(scaled, axis=1), exp, in_span, r,
                       c, a2.take(k), a1.take(k), a0[c], scale2.take(k),
                       scale1[r] * big[c])


def event_regions(
    batch: Sequence[Comparisons],
) -> List[Union[Tuple[np.ndarray, np.ndarray], errors.InvariantViolation]]:
    """Each response's event regions from its :class:`Comparisons`: the
    per-batch stage of :func:`selection_events`.

    The batch is joined into one :class:`Comparisons` whose directions are
    every response's in turn, so that every response's comparisons are
    solved in one :func:`_forbidden` call and every direction's failure sets
    swept in one :func:`_allowed` call.  Item ``b`` is response ``b``'s
    padded ``(lo, hi)`` rows, scaled back to its directions' own coordinates
    and as wide as its longest row needs; or, when an observation falls
    outside its own region, the ``InvariantViolation`` that response's own
    call raises.  Every response's rows depend on that response alone.
    """
    if not batch:
        return []
    sizes = [len(c.t) for c in batch]
    parts = {f.name: np.concatenate([getattr(c, f.name) for c in batch])
             for f in fields(Comparisons)}
    parts["row"] += np.repeat(np.cumsum(sizes) - sizes, [len(c.row) for c in batch])
    return _regions(Comparisons(**parts), sizes)


def _regions(
    whole: Comparisons, sizes: Sequence[int],
) -> List[Union[Tuple[np.ndarray, np.ndarray], errors.InvariantViolation]]:
    """:func:`event_regions` of the batch joined into ``whole``, which
    holds every response's directions in turn, ``sizes[b]`` of them
    response ``b``'s."""
    owner, lo, hi = whole.failure_sets
    lo, hi = _allowed(whole.row[owner], lo, hi, len(whole.t))
    t = whole.t[:, None]
    inside = ((lo < t) & (t < hi)).any(axis=1)
    lo, hi = _scaled_back(lo, hi, whole.exp)
    width = (lo < hi).sum(axis=1)
    out = []
    ends = np.cumsum(sizes)
    for a, b in zip(ends - sizes, ends):
        if not inside[a:b].all():
            out.append(errors.InvariantViolation(
                "observed eta'y fell outside its own selection event; "
                "endpoints may be numerically degenerate"))
            continue
        w = width[a:b].max(initial=1)
        out.append((lo[a:b, :w], hi[a:b, :w]))
    return out


def _scaled_back(lo: np.ndarray, hi: np.ndarray,
                 exp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Padded rows of pieces, each row times ``2**exp`` of its row.

    An end beyond the float range becomes an infinite one, so a piece wholly
    beyond it is left with no width; such pieces are dropped, which keeps
    each row's pieces at its front.
    """
    with np.errstate(over="ignore"):
        lo, hi = np.ldexp(lo, exp[:, None]), np.ldexp(hi, exp[:, None])
    # only a piece with an infinite end can have lost its width
    gone = np.isinf(lo) & ~(lo < hi)
    if gone.any():
        order = np.argsort(gone, axis=1, kind="stable")
        lo, hi = (np.take_along_axis(np.where(gone, 0.0, side), order, axis=1)
                  for side in (lo, hi))
    return lo, hi
