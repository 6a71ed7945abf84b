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


@dataclass(frozen=True)
class CandidatePolicy:
    """Which submodels compete.

    All subsets of the free columns (forced columns always included), the
    empty free set excluded unless ``include_empty``, optionally capped at
    ``max_size`` free columns.
    """

    max_size: Optional[int] = None
    include_empty: bool = False


DEFAULT_POLICY = CandidatePolicy()


def penalty_ratio_sizes(size_tilde: int, size: int, spec: CriterionSpec) -> float:
    """Threshold on ``rss(S)/rss(S_tilde)`` above which ``S_tilde`` wins,
    for models with ``size_tilde`` and ``size`` free columns."""
    return math.exp((spec.penalty(size_tilde) - spec.penalty(size)) / spec.n)


# Refuse candidate sets whose basis build would exceed this many bytes at
# its peak; exhaustive enumeration at that scale also takes minutes.
MAX_CANDIDATE_BYTES = 256 * 2 ** 20

# Room for the iteration buffers of NumPy's ufuncs.
_BUFFER_BYTES = 2 ** 18

# Column-membership bitmasks are int64 with the sign bit kept clear.
MAX_MASK_COLUMNS = 62


def _free_sizes(n_free: int, policy: CandidatePolicy) -> range:
    """Free-column counts admitted by ``policy`` among ``n_free`` free columns."""
    cap = n_free if policy.max_size is None else min(policy.max_size, n_free)
    return range(0 if policy.include_empty else 1, cap + 1)


def _build_bytes(data: Dataset, policy: CandidatePolicy) -> Tuple[int, int, int]:
    """``(models, stack bytes, peak bytes)`` of building the candidate set.

    The stack holds ``C(p_free, k) * (p - width_k)`` rows of ``p`` floats for
    each admitted free size ``k`` (see :class:`CandidateSet`).  The peak adds
    the working arrays of the largest level of the build, its gathered
    parents (one row more than the level's own bases) and four ``p``-long
    rows per model that bound its per-model vectors, and NumPy's iteration
    buffers.
    """
    n_free = len(data.free_indices)
    n_forced = len(data.forced_indices)
    p = data.p
    count = stack = work = 0
    for k in _free_sizes(n_free, policy):
        m = math.comb(n_free, k)
        count += m
        stack += m * (p - n_forced - k) * p
        if k:
            work = max(work, m * (p - n_forced - k + 5) * p)
    return count, stack * 8, (stack + work) * 8 + _BUFFER_BYTES


def _check_budget(data: Dataset, policy: CandidatePolicy) -> None:
    """Raise ``InputError`` before enumerating a candidate set too large to
    build; the estimate is the build's peak (see :func:`_build_bytes`)."""
    if data.p > MAX_MASK_COLUMNS:
        raise errors.InputError(
            f"p={data.p} exceeds {MAX_MASK_COLUMNS}, the most columns a "
            "candidate bitmask can hold")
    count, _, peak = _build_bytes(data, policy)
    if peak > MAX_CANDIDATE_BYTES:
        raise errors.InputError(
            f"candidate policy admits {count} models whose basis build "
            f"needs about {peak / 2 ** 20:.0f} MiB, above the "
            f"{MAX_CANDIDATE_BYTES / 2 ** 20:.0f} MiB limit; cap the model "
            "size with CandidatePolicy(max_size=...)")


class _Level(NamedTuple):
    """The candidates of one free size ``k``.

    They hold positions ``models`` in canonical order and rows ``rows`` of
    the basis stack, ``dim = p - |S|`` consecutive rows each.  For ``k > 0``,
    ``parents`` gives each model's prefix parent (the model without its
    largest free column) as a position among the models of size ``k - 1``,
    or the forced columns alone at ``k = 1``, and ``new_columns`` the
    0-based column it adds.
    """

    models: slice
    rows: slice
    dim: int
    parents: Optional[np.ndarray]
    new_columns: Optional[np.ndarray]

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
def _candidate_list(forced: Tuple[int, ...], free: Tuple[int, ...],
                    policy: CandidatePolicy) -> _CandidateList:
    """Canonical order: free size, then lexicographic.  The list depends on
    the forced and free columns and the policy only, never on the design."""
    sizes = _free_sizes(len(free), policy)
    models = tuple(
        IndexSet(tuple(sorted(forced + combo)))
        for k in sizes
        for combo in itertools.combinations(free, k))
    if not models:
        raise errors.InputError("candidate policy admits no models")
    masks = np.array([sum(1 << (i - 1) for i in m.indices) for m in models],
                     dtype=np.int64)
    # Walk the prefix tree in canonical order: a parent's children add, in
    # turn, each free column after its last one.
    columns = np.array(free) - 1
    last = np.array([-1])  # position in ``free`` of each model's last column
    levels = []
    first = row = 0
    for k in sizes:
        count, dim = math.comb(len(free), k), len(free) - k
        parent = new = None
        if k:
            children = len(free) - 1 - last
            parent = np.repeat(np.arange(last.size), children)
            first_child = np.cumsum(children) - children
            last = last[parent] + 1 + np.arange(count) - first_child[parent]
            parent, new = _frozen(parent), _frozen(columns[last])
        levels.append(_Level(slice(first, first + count),
                             slice(row, row + count * dim), dim, parent, new))
        first, row = first + count, row + count * dim
    free_sizes = np.repeat(np.array(sizes), [lv.count for lv in levels])
    return _CandidateList(models, {m: pos for pos, m in enumerate(models)},
                          _frozen(free_sizes), _frozen(masks), tuple(levels))


def _complement_bases(r: np.ndarray, n_forced: int,
                      listed: _CandidateList) -> np.ndarray:
    """Stacked complement bases (as rows) of every candidate, built one free
    size at a time from each model's prefix parent.

    If the rows of ``N_P`` span the complement of ``span R[:, P]``, a
    Householder reflection that maps ``v = N_P R[:, j]`` onto a multiple of
    ``e_1`` leaves rows 2.. orthogonal to ``R[:, j]`` as well: they are the
    basis of ``P + {j}``.  ``|v|`` is the distance of column ``j`` from the
    span of the parent's columns, the |diag| entry that the QR of the model's
    sorted columns ends with, so a running min and max per model give the
    rank check.  The forced columns lead and ``R`` is upper triangular, so
    the root's basis is the last ``p - n_forced`` unit vectors and its
    |diag| entries are those of ``R``.
    """
    p = r.shape[0]
    stack = np.empty((listed.levels[-1].rows.stop, p))
    level = np.eye(p)[None, n_forced:]
    diag = np.abs(np.diag(r)[:n_forced])
    lo = np.array([diag.min(initial=np.inf)])
    hi = np.array([diag.max(initial=0.0)])
    for lv in listed.levels:
        if lv.parents is None:  # the empty free set is the root itself
            stack[lv.rows] = level[0]
            continue
        gathered = level[lv.parents]
        v = np.einsum("mdp,pm->md", gathered, r[:, lv.new_columns])
        norm = np.sqrt(np.einsum("md,md->m", v, v))
        lo = np.minimum(lo[lv.parents], norm)
        hi = np.maximum(hi[lv.parents], norm)
        bad = np.flatnonzero(lo < RANK_TOL * np.maximum(hi, np.finfo(float).tiny))
        if bad.size:
            raise errors.RankDeficient(
                "submodel columns are collinear beyond tolerance",
                model=listed.models[lv.models.start + bad[0]])
        # w = v + sign(v_1)|v| e_1 and H = I - 2 w w'/|w|^2, |w|^2 = 2|v||w_1|
        v[:, 0] += np.copysign(norm, v[:, 0])
        s = np.einsum("md,mdp->mp", v, gathered)
        s /= (norm * np.abs(v[:, 0]))[:, None]
        level = stack[lv.rows].reshape(lv.count, lv.dim, p)
        np.einsum("md,mp->mdp", v[:, 1:], s, out=level)
        np.subtract(gathered[:, 1:], level, out=level)
        del gathered  # before the next level gathers its own parents
    return stack


class CandidateSet:
    """Candidate models of one design plus batched per-model kernels.

    Built once per (design, policy) and cached on the dataset.  The kernels
    work in the coordinates of the full design's thin QR ``X = Q R``: with
    ``u = Q'v`` and ``v_perp = v - Q u``, the residual maker ``R_S`` of model
    ``S`` (not to be confused with the triangular factor ``R``) satisfies
    ``|R_S v|^2 = |v_perp|^2 + |N_S'u|^2``, where the columns of
    ``N_S`` (p by p - |S|) are an orthonormal basis of the complement of the
    span of ``R[:, S]``.  Each model therefore stores p-dimensional vectors
    only, and one matrix product over the stacked bases serves every model.
    """

    def __init__(self, data: Dataset, policy: CandidatePolicy):
        _check_budget(data, policy)
        self.data = data
        self.policy = policy
        listed = _candidate_list(data.forced_indices, data.free_indices, policy)
        self.models = list(listed.models)
        self._position = listed.position
        self.free_sizes = listed.free_sizes
        # column-membership bitmasks, for fast subset/superset tests
        self.masks = listed.masks
        self._penalties: dict = {}
        self._q, r = data._qr_of(data.full_model().indices)
        self._levels = listed.levels
        self._basis = _complement_bases(r, len(data.forced_indices), listed)

    def __len__(self) -> int:
        return len(self.models)

    def index_of(self, S: IndexSet) -> int:
        try:
            return self._position[S]
        except KeyError:
            raise errors.InputError(
                f"model {S} is not a candidate under the current policy"
            ) from None

    def _gram(self, vs: np.ndarray) -> np.ndarray:
        """Residual inner products of ``vs = [v_0, v_1, ..., v_T]`` (a (T+1, n)
        array) for every candidate: a (2T+1, M) array whose rows are
        ``|R_S v_0|^2``, then ``(R_S v_0)'(R_S v_t)`` and then ``|R_S v_t|^2``
        for ``t = 1..T``.

        The part of each vector outside the full design's span is shared by
        all candidates; the rest is a sum over the vector's coordinates in
        each model's complement basis.  The basis stack is read once per
        call, whatever the number of vectors.
        """
        u = vs @ self._q  # (T+1, p)
        perp = vs - u @ self._q.T
        coords = u @ self._basis.T  # (T+1, rows)
        t = len(vs) - 1
        out = np.empty((2 * t + 1, len(self.models)))
        for lv in self._levels:
            c = coords[:, lv.rows].reshape(t + 1, lv.count, lv.dim)
            np.einsum("md,tmd->tm", c[0], c, out=out[:t + 1, lv.models])
            if t:
                np.einsum("tmd,tmd->tm", c[1:], c[1:], out=out[t + 1:, lv.models])
        shared = np.concatenate([
            np.einsum("tn,tn->t", np.broadcast_to(perp[0], perp.shape), perp),
            np.einsum("tn,tn->t", perp[1:], perp[1:])])
        out += shared[:, None]
        return out

    def rss_all(self, y: np.ndarray) -> np.ndarray:
        """Residual sum of squares of every candidate, canonical order."""
        return self._gram(np.asarray(y, dtype=float).reshape(1, -1))[0]

    def gram(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(|R_S a|^2, (R_S a)'(R_S b), |R_S b|^2)`` over all candidates.

        ``b`` may be a (T, n) stack of vectors; the last two results are then
        (T, M), one row per vector, all from one kernel call over
        ``[a, b_1, ..., b_T]`` (2T + 1 inner products per candidate).
        """
        a = np.asarray(a, dtype=float).reshape(1, -1)
        b = np.asarray(b, dtype=float)
        stack = b.reshape(-1, a.shape[1])
        t = stack.shape[0]
        out = self._gram(np.concatenate([a, stack]))
        ab, bb = out[1:t + 1], out[t + 1:]
        if b.ndim == 1:
            ab, bb = ab[0], bb[0]
        return out[0], ab, bb

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


def candidate_set(data: Dataset, policy: CandidatePolicy = DEFAULT_POLICY) -> CandidateSet:
    key = ("candidates", policy)
    hit = data._cache.get(key)
    if hit is None:
        hit = CandidateSet(data, policy)
        data._cache[key] = hit
    return hit


def best_subset(
    data: Dataset,
    spec: CriterionSpec,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> Tuple[IndexSet, List[ScoredModel]]:
    """Exhaustively score all candidates and return the winner plus the field.

    Ties break toward the smaller model, then the lexicographically smaller
    index list; the canonical enumeration order makes the first minimum the
    tie-break winner.
    """
    cs = candidate_set(data, policy)
    scores, rss = cs.scores(data.y, spec)
    best = int(np.argmin(scores))
    scored = [
        ScoredModel(model=m, score=float(s), rss=float(r))
        for m, s, r in zip(cs.models, scores, rss)
    ]
    return cs.models[best], scored
