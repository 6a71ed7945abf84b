"""Information-criterion scoring and exhaustive best-subset search.

Scores have the form ``penalty(size) + n * log(rss)`` where only penalty
differences matter for selection.  The pairwise penalty ratio
``omega(S1, S2) = exp{(penalty(|S1|) - penalty(|S2|)) / n}`` turns a score
comparison into a threshold on an RSS ratio, which is what the selection
geometry consumes.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import errors
from .linmodel import RANK_TOL, Dataset, IndexSet


class Criterion(enum.Enum):
    AIC = "aic"
    BIC = "bic"
    AICC = "aicc"

    @classmethod
    def parse(cls, text: str) -> "Criterion":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise errors.InputError(
                f"unknown criterion {text!r}; expected aic, bic or aicc"
            ) from None


@dataclass(frozen=True)
class CriterionSpec:
    kind: Criterion
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise errors.InputError(f"criterion needs n >= 3, got n={self.n}")

    def penalty(self, size: int) -> float:
        """Size penalty of a model with ``size`` free columns."""
        n = self.n
        if self.kind is Criterion.AIC:
            return 2.0 * size
        if self.kind is Criterion.BIC:
            return math.log(n) * size
        # small-sample corrected AIC; equals 2k + 2k(k+1)/(n-k-1)
        if n - size - 1 <= 0:
            raise errors.AICcDegenerate(
                f"AICc undefined for size {size} at n={n}")
        return 2.0 * n * size / (n - size - 1)


@dataclass(frozen=True)
class ScoredModel:
    model: IndexSet
    score: float
    rss: float


# Refuse candidate sets whose basis build would exceed this many bytes at
# its peak; exhaustive enumeration at that scale also takes minutes.
MAX_CANDIDATE_BYTES = 256 * 2 ** 20

# Room for the iteration buffers of NumPy's ufuncs.
_BUFFER_BYTES = 2 ** 18

# Column-membership bitmasks are int64 with the sign bit kept clear.
MAX_MASK_COLUMNS = 62


def _buffer_rows(n_free: int) -> Tuple[int, int]:
    """Rows of ``p`` floats in each of the build's two level buffers, which
    hold in turn one size's complement bases and every column's coordinates
    in them, and in its buffer of the bases gathered for the next size.
    The build allocates them once, as one block, and reuses them for every
    size: fresh arrays per size would be paged in anew by every build."""
    return (max(math.comb(n_free, j) * (n_free - j) for j in range(n_free)),
            max(math.comb(n_free, k) * (n_free - k + 1) for k in range(1, n_free + 1)))


def _build_bytes(data: Dataset) -> Tuple[int, int, int]:
    """``(models, stored bytes, peak bytes)`` of building the candidate set
    of a design with at least one free column.

    The set stores one direction of ``p`` floats per model but the full
    model (see :class:`CandidateSet`).  The peak adds the build's buffers
    (see :func:`_buffer_rows`), four ``p``-long rows per model of the most
    populous size that bound the per-model vectors, and NumPy's iteration
    buffers.
    """
    n_free = len(data.free_indices)
    stored = 2 ** n_free - 2
    level, gathered = _buffer_rows(n_free)
    work = 2 * level + gathered + 4 * math.comb(n_free, n_free // 2)
    return (stored + 1, stored * data.p * 8,
            (stored + work) * data.p * 8 + _BUFFER_BYTES)


def _check_budget(data: Dataset) -> None:
    """Raise ``InputError`` before enumerating a candidate set that cannot
    be built: for a design without a free column, one too wide for the
    bitmasks, or one whose build's peak (see :func:`_build_bytes`) is over
    the memory budget."""
    n_free = len(data.free_indices)
    if not n_free:
        raise errors.InputError("the design has no free column to select")
    if data.p > MAX_MASK_COLUMNS:
        raise errors.InputError(
            f"p={data.p} exceeds {MAX_MASK_COLUMNS}, the most columns a "
            "candidate bitmask can hold")
    count, _, peak = _build_bytes(data)
    if peak > MAX_CANDIDATE_BYTES:
        raise errors.InputError(
            f"{n_free} free columns give {count} models whose basis build "
            f"needs about {peak / 2 ** 20:.0f} MiB, above the "
            f"{MAX_CANDIDATE_BYTES / 2 ** 20:.0f} MiB limit")


class _Level(NamedTuple):
    """The candidates of one free size ``k >= 1``, at positions ``models``
    in canonical order, each with a complement of ``dim = p - |S|``
    dimensions.

    ``parents`` gives each model's prefix parent (the model without its
    largest free column) as a position among the models of size ``k - 1``,
    or the forced columns alone at ``k = 1``, and ``read`` the (parents,
    0-based columns) indices that read the coordinates of each model's
    added column and then, above ``k = 1``, of each parent's superset
    column.  Below the top level, the full model, ``supers`` gives each
    model's superset parent, and ``super_columns`` the 0-based column that
    parent adds.
    """

    models: slice
    dim: int
    parents: np.ndarray
    read: Tuple[np.ndarray, np.ndarray]
    supers: Optional[np.ndarray]
    super_columns: Optional[np.ndarray]

    @property
    def count(self) -> int:
        return self.models.stop - self.models.start


@dataclass(frozen=True, eq=False)
class _CandidateList:
    """Candidate models of a column layout, with their positions, free
    sizes, column-membership bitmasks and levels; shared (read-only) by
    every design with that layout."""

    models: Tuple[IndexSet, ...]
    position: Dict[IndexSet, int]
    free_sizes: np.ndarray
    masks: np.ndarray
    levels: Tuple[_Level, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _candidate_list(forced: Tuple[int, ...], free: Tuple[int, ...]) -> _CandidateList:
    """Every nonempty subset of the free columns, each with the forced ones,
    in canonical order: free size, then lexicographic.  The list depends on
    the forced and free columns only, never on the design.  A model's
    superset parent adds the first free column it lacks.
    """
    sizes = range(1, len(free) + 1)
    models = tuple(
        IndexSet(tuple(sorted(forced + combo)))
        for k in sizes
        for combo in itertools.combinations(free, k))
    masks = np.array([sum(1 << (i - 1) for i in m.indices) for m in models],
                     dtype=np.int64)
    by_mask = np.argsort(masks)
    # Walk the prefix tree in canonical order: a parent's children add, in
    # turn, each free column after its last one.
    columns = np.array(free, dtype=np.int64) - 1
    last = np.array([-1])  # position in ``free`` of each model's last column
    levels = []
    start = 0
    for k in sizes:
        count = math.comb(len(free), k)
        at = slice(start, start + count)
        children = len(free) - 1 - last
        parent = np.repeat(np.arange(last.size), children)
        first_child = np.cumsum(children) - children
        last = last[parent] + 1 + np.arange(count) - first_child[parent]
        read = (parent, columns[last])
        if levels:
            read = tuple(map(np.concatenate, zip(read, (
                np.arange(levels[-1].count), levels[-1].super_columns))))
        supers = added = None
        if k < len(free):
            added = _frozen(columns[np.argmin((masks[at, None] >> columns) & 1,
                                              axis=1)])
            supers = _frozen(by_mask[np.searchsorted(
                masks, masks[at] | (1 << added), sorter=by_mask)])
        levels.append(_Level(at, len(free) - k, _frozen(parent),
                             tuple(map(_frozen, read)), supers, added))
        start += count
    free_sizes = np.repeat(np.array(sizes), [lv.count for lv in levels])
    return _CandidateList(models, {m: pos for pos, m in enumerate(models)},
                          _frozen(free_sizes), _frozen(masks), tuple(levels))


def _rank_check(dist: np.ndarray, root: np.ndarray,
                listed: _CandidateList) -> None:
    """Raise ``RankDeficient`` for the first candidate, in canonical order,
    whose smallest distance ``dist`` of a column from the span of the
    columns before it (for the forced columns, ``root``) falls below
    ``RANK_TOL`` times its largest."""
    lo = root.min(initial=np.inf, keepdims=True)
    hi = root.max(initial=np.finfo(float).tiny, keepdims=True)
    if dist.min(initial=lo[0]) >= RANK_TOL * dist.max(initial=hi[0]):
        return  # no model can fail
    for lv in listed.levels:
        lo = np.minimum(lo[lv.parents], dist[lv.models])
        hi = np.maximum(hi[lv.parents], dist[lv.models])
        bad = np.flatnonzero(lo < RANK_TOL * hi)
        if bad.size:
            raise errors.RankDeficient(
                "submodel columns are collinear beyond tolerance",
                model=listed.models[lv.models.start + bad[0]])


def _directions(r: np.ndarray, n_forced: int, listed: _CandidateList,
                buffer_rows: Tuple[int, int]) -> np.ndarray:
    """Each candidate's direction but the full model's (a (models - 1, p)
    array in canonical order), built one free size at a time from prefix
    parents in buffers of ``buffer_rows`` (see :func:`_buffer_rows`).

    If the rows of ``N_P`` span the complement of ``span R[:, P]``, the
    coordinates ``N_P R`` of every column give ``P``'s direction,
    ``N_P' x / |x|`` for the coordinates ``x`` of its superset parent's
    added column: the unit residual of that column against ``span R[:, P]``.
    They also give each child ``P + {j}`` the coordinates ``v`` of its added
    column.  A Householder reflection that maps ``v`` onto a multiple of
    ``e_1`` leaves rows 2.. of ``N_P`` orthogonal to ``R[:, j]`` as well:
    they are the basis of ``P + {j}``.  ``|v|`` is the distance of column
    ``j`` from the span of the parent's columns, the |diag| entry that the
    QR of the child's sorted columns ends with, which the rank check reads
    once the build is done; a deficient design builds rubbish until then.
    The forced columns lead and ``R`` is upper triangular, so the basis of
    the forced columns alone is the last ``p - n_forced`` unit vectors and
    their |diag| entries are those of ``R``.
    """
    p = r.shape[0]
    dirs = np.empty((listed.levels[-1].models.start, p))
    dist = np.empty(len(listed.models))
    spare, other, parents = np.split(
        np.empty((2 * buffer_rows[0] + buffer_rows[1]) * p),
        [buffer_rows[0] * p, 2 * buffer_rows[0] * p])
    level = np.eye(p)[None, n_forced:]
    below = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lv in listed.levels:
            # every column's coordinates, then the new bases, in the buffer
            # that the level before last used
            coords = np.matmul(level.reshape(-1, p), r,
                               out=spare[:level.size].reshape(-1, p))
            rows, columns = lv.read
            read = coords.reshape(level.shape)[rows, :, columns]
            v = read[:lv.count]
            if below is not None:  # the parents are candidates
                np.einsum("md,mdp->mp", read[lv.count:], level,
                          out=dirs[below.models])
            norm = np.sqrt(np.einsum("md,md->m", v, v), out=dist[lv.models])
            gathered = np.take(level, lv.parents, axis=0, mode="clip", out=(
                parents[:lv.count * level[0].size].reshape(-1, *level.shape[1:])))
            level = spare[:lv.count * lv.dim * p].reshape(lv.count, lv.dim, p)
            # w = v + sign(v_1)|v| e_1, H = I - 2 w w'/|w|^2, |w|^2 = 2|v||w_1|
            v[:, 0] += np.copysign(norm, v[:, 0])
            s = np.einsum("md,mdp->mp", v, gathered)
            s /= (norm * np.abs(v[:, 0]))[:, None]
            np.einsum("md,mp->mdp", v[:, 1:], s, out=level)
            np.subtract(gathered[:, 1:], level, out=level)
            spare, other = other, spare
            below = lv
        dirs /= np.sqrt(np.einsum("mp,mp->m", dirs, dirs))[:, None]
    _rank_check(dist, np.abs(np.diag(r)[:n_forced]), listed)
    return dirs


class CandidateSet:
    """Candidate models of one design plus batched per-model kernels.

    The candidates are every nonempty subset of the free columns, each with
    the forced ones.  Built once per design and cached on the dataset.  The
    kernels work in the coordinates of the full design's thin QR
    ``X = Q R``: with ``u = Q'v`` and ``v_perp = v - Q u``, the residual
    maker ``R_S`` of model ``S`` (not to be confused with the triangular
    factor ``R``) satisfies ``|R_S v|^2 = |v_perp|^2 + |N_S'u|^2``, where
    the columns of ``N_S`` (p by p - |S|) are an orthonormal basis of the
    complement of the span of ``R[:, S]``.  A model ``S`` other than the full model has a superset
    parent ``S + {j}`` among the candidates; the complement of ``S`` is that
    parent's plus one unit vector ``q_S``, the residual of ``R[:, j]``
    against ``span R[:, S]``, so ``|N_S'u|^2 = |N_{S+j}'u|^2 + (q_S'u)^2``.
    Such a model stores ``q_S`` only, ``p`` floats instead of the
    ``(p - |S|) * p`` of a basis; the full model's complement is empty.
    """

    def __init__(self, data: Dataset):
        _check_budget(data)
        self.data = data
        listed = _candidate_list(data.forced_indices, data.free_indices)
        self.models = list(listed.models)
        self._position = listed.position
        self.free_sizes = listed.free_sizes
        # column-membership bitmasks, for fast subset/superset tests
        self.masks = listed.masks
        self._penalties: dict = {}
        self._q, r = data._qr_of(data.full_model().indices)
        self._levels = listed.levels
        self._dirs = _directions(r, len(data.forced_indices), listed,
                                 _buffer_rows(len(data.free_indices)))

    def __len__(self) -> int:
        return len(self.models)

    def index_of(self, S: IndexSet) -> int:
        try:
            return self._position[S]
        except KeyError:
            raise errors.InputError(
                f"model {S} is not a candidate") from None

    def _gram(self, vs: np.ndarray) -> np.ndarray:
        """Residual inner products of ``vs = [v_0, v_1, ..., v_T]`` (a (T+1, n)
        array) for every candidate: a (2T+1, M) array whose rows are
        ``|R_S v_0|^2``, then ``(R_S v_0)'(R_S v_t)`` and then ``|R_S v_t|^2``
        for ``t = 1..T``.

        The part of each vector outside the full design's span is shared by
        all candidates, and is the full model's value, last in canonical
        order.  Every other model adds the product of the vectors'
        coordinates along its direction to its superset parent's value, one
        size level at a time down from the top.  Every value is so a sum of
        squares, and each cross term a sum of products bounded by
        ``|R_S v_0| |R_S v_t|``.
        """
        u = vs @ self._q  # (T+1, p)
        perp = vs - u @ self._q.T
        t = len(vs) - 1
        out = np.empty((2 * t + 1, len(self.models)))
        out[:, -1] = np.concatenate([
            np.einsum("tn,tn->t", np.broadcast_to(perp[0], perp.shape), perp),
            np.einsum("tn,tn->t", perp[1:], perp[1:])])
        g = u @ self._dirs.T  # (T+1, models below the top)
        step = np.concatenate([g[0] * g, g[1:] * g[1:]])
        for lv in reversed(self._levels[:-1]):
            np.add(out.take(lv.supers, axis=1), step[:, lv.models], out=out[:, lv.models])
        return out

    def rss_all(self, y: np.ndarray) -> np.ndarray:
        """Residual sum of squares of every candidate, canonical order."""
        return self._gram(np.asarray(y, dtype=float).reshape(1, -1))[0]

    def gram(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(|R_S a|^2, (R_S a)'(R_S b), |R_S b|^2)`` over all candidates,
        for the rows of the (T, n) stack ``b``: the last two results are
        (T, M), one row per vector, all from one kernel call over
        ``[a, b_1, ..., b_T]`` (2T + 1 inner products per candidate).
        """
        a = np.asarray(a, dtype=float).reshape(1, -1)
        b = np.asarray(b, dtype=float).reshape(-1, a.shape[1])
        out = self._gram(np.concatenate([a, b]))
        return out[0], out[1:len(b) + 1], out[len(b) + 1:]

    def penalties(self, spec: CriterionSpec) -> np.ndarray:
        """Size penalty of every candidate under ``spec``; computed once."""
        hit = self._penalties.get(spec)
        if hit is None:
            sizes, of_size = np.unique(self.free_sizes, return_inverse=True)
            hit = np.array([spec.penalty(int(k)) for k in sizes])[of_size]
            hit.flags.writeable = False
            self._penalties[spec] = hit
        return hit

    def score_rss(self, rss: np.ndarray, spec: CriterionSpec) -> np.ndarray:
        """Criterion scores from candidate RSS values; raises on interpolation."""
        if spec.n != self.data.n:
            raise errors.InputError(
                f"criterion has n={spec.n} but data has n={self.data.n}")
        bad = np.flatnonzero(rss <= 0.0)
        if bad.size:
            raise errors.NonPositiveRSS(
                "a candidate interpolates the response exactly",
                model=self.models[bad[0]])
        return self.penalties(spec) + spec.n * np.log(rss)

    def scores(self, y: np.ndarray, spec: CriterionSpec) -> Tuple[np.ndarray, np.ndarray]:
        """(scores, rss) arrays over all candidates; raises on interpolation."""
        rss = self.rss_all(y)
        return self.score_rss(rss, spec), rss


def candidate_set(data: Dataset) -> CandidateSet:
    hit = data._cache.get("candidates")
    if hit is None:
        hit = CandidateSet(data)
        data._cache["candidates"] = hit
    return hit


def best_subset(data: Dataset, spec: CriterionSpec) -> Tuple[IndexSet, List[ScoredModel]]:
    """Exhaustively score all candidates and return the winner plus the field.

    Ties break toward the smaller model, then the lexicographically smaller
    index list; the canonical enumeration order makes the first minimum the
    tie-break winner.
    """
    cs = candidate_set(data)
    scores, rss = cs.scores(data.y, spec)
    best = int(np.argmin(scores))
    scored = [
        ScoredModel(model=m, score=float(s), rss=float(r))
        for m, s, r in zip(cs.models, scores, rss)
    ]
    return cs.models[best], scored
