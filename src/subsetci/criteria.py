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
from typing import Dict, List, Optional, Tuple

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


def criterion_score(
    S: IndexSet,
    rss: float,
    spec: CriterionSpec,
    free_size: Optional[int] = None,
) -> float:
    """Score of model ``S`` with residual sum of squares ``rss``.

    ``free_size`` overrides the size used in the penalty (needed when a
    forced column should not count); defaults to ``len(S)``.
    """
    if not rss > 0.0:
        raise errors.NonPositiveRSS(
            "rss must be positive for a finite score", model=S)
    k = len(S) if free_size is None else free_size
    return spec.penalty(k) + spec.n * math.log(rss)


def penalty_ratio(
    S_tilde: IndexSet,
    S: IndexSet,
    spec: CriterionSpec,
    free_sizes: Optional[Tuple[int, int]] = None,
) -> float:
    """Threshold on ``rss(S)/rss(S_tilde)`` above which ``S_tilde`` wins.

    ``score(S_tilde) < score(S)`` iff ``rss(S)/rss(S_tilde)`` exceeds this
    ratio.
    """
    if free_sizes is None:
        k1, k2 = len(S_tilde), len(S)
    else:
        k1, k2 = free_sizes
    return penalty_ratio_sizes(k1, k2, spec)


def penalty_ratio_sizes(size_tilde: int, size: int, spec: CriterionSpec) -> float:
    return math.exp((spec.penalty(size_tilde) - spec.penalty(size)) / spec.n)


# Refuse candidate sets whose stacked per-model bases would exceed this many
# bytes; exhaustive enumeration at that scale also takes minutes.
MAX_CANDIDATE_BYTES = 256 * 2 ** 20

# Column-membership bitmasks are int64 with the sign bit kept clear.
MAX_MASK_COLUMNS = 62


def _free_sizes(n_free: int, policy: CandidatePolicy) -> range:
    """Free-column counts admitted by ``policy`` among ``n_free`` free columns."""
    cap = n_free if policy.max_size is None else min(policy.max_size, n_free)
    return range(0 if policy.include_empty else 1, cap + 1)


def _check_budget(data: Dataset, policy: CandidatePolicy) -> None:
    """Raise ``InputError`` before enumerating a candidate set too large to hold.

    The estimate counts the models and the bytes of their stacked complement
    bases (see :class:`CandidateSet`), ``sum_k C(p_free, k) * p * (p - width_k)
    * 8`` over the admitted free sizes ``k``.
    """
    if data.p > MAX_MASK_COLUMNS:
        raise errors.InputError(
            f"p={data.p} exceeds {MAX_MASK_COLUMNS}, the most columns a "
            "candidate bitmask can hold")
    n_free = len(data.free_indices)
    n_forced = len(data.forced_indices)
    count = 0
    stack_bytes = 0
    for k in _free_sizes(n_free, policy):
        m = math.comb(n_free, k)
        count += m
        stack_bytes += m * data.p * (data.p - k - n_forced) * 8
    if stack_bytes > MAX_CANDIDATE_BYTES:
        raise errors.InputError(
            f"candidate policy admits {count} models whose stacked bases "
            f"need about {stack_bytes / 2 ** 20:.0f} MiB, above the "
            f"{MAX_CANDIDATE_BYTES / 2 ** 20:.0f} MiB limit; cap the model "
            "size with CandidatePolicy(max_size=...)")


@dataclass(frozen=True, eq=False)
class _CandidateList:
    """Candidate models of a column layout, with their positions, free
    sizes and column-membership bitmasks; shared (read-only) by every
    design with that layout."""

    models: Tuple[IndexSet, ...]
    position: Dict[IndexSet, int]
    free_sizes: np.ndarray
    masks: np.ndarray


@functools.lru_cache(maxsize=16)
def _candidate_list(forced: Tuple[int, ...], free: Tuple[int, ...],
                    policy: CandidatePolicy) -> _CandidateList:
    """Canonical order: free size, then lexicographic.  The list depends on
    the forced and free columns and the policy only, never on the design."""
    models = tuple(
        IndexSet(tuple(sorted(forced + combo)))
        for k in _free_sizes(len(free), policy)
        for combo in itertools.combinations(free, k))
    if not models:
        raise errors.InputError("candidate policy admits no models")
    free_sizes = np.array([len(m) - len(forced) for m in models], dtype=int)
    masks = np.array([sum(1 << (i - 1) for i in m.indices) for m in models],
                     dtype=np.int64)
    free_sizes.flags.writeable = False
    masks.flags.writeable = False
    return _CandidateList(models, {m: pos for pos, m in enumerate(models)},
                          free_sizes, masks)


def enumerate_candidates(data: Dataset, policy: CandidatePolicy) -> List[IndexSet]:
    """All candidate models in canonical order (free size, then lexicographic)."""
    return list(_candidate_list(data.forced_indices, data.free_indices, policy).models)


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
        p = data.p
        widths = listed.free_sizes + len(data.forced_indices)
        blocks = []
        # canonical order sorts by free size, so each width is one run
        for width in np.unique(widths):
            start, stop = np.searchsorted(widths, [width, width + 1])
            if width == 0:
                basis = np.broadcast_to(np.eye(p), (stop - start, p, p))
            else:
                cols = np.array([m.indices for m in self.models[start:stop]]) - 1
                q_s, r_s = np.linalg.qr(r[:, cols].transpose(1, 0, 2),
                                        mode="complete")
                # |diag| of the QR of R[:, S] equals that of X[:, S]
                d = np.abs(np.diagonal(r_s, axis1=1, axis2=2))
                floor = RANK_TOL * np.maximum(d.max(axis=1), np.finfo(float).tiny)
                bad = np.flatnonzero(d.min(axis=1) < floor)
                if bad.size:
                    raise errors.RankDeficient(
                        "submodel columns are collinear beyond tolerance",
                        model=self.models[start + bad[0]])
                basis = q_s[:, :, width:]
            blocks.append(basis.transpose(0, 2, 1).reshape(-1, p))
        # model i owns rows row_start[i] : row_start[i] + p - |S_i|
        self._basis = np.concatenate(blocks)
        rows = p - widths
        self._has_rows = rows > 0
        self._row_starts = (np.cumsum(rows) - rows)[self._has_rows]

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
        prod = np.empty((2 * t + 1, coords.shape[1]))
        np.multiply(coords[0], coords, out=prod[:t + 1])
        np.multiply(coords[1:], coords[1:], out=prod[t + 1:])
        out = np.zeros((2 * t + 1, len(self.models)))
        if self._row_starts.size:
            out[:, self._has_rows] = np.add.reduceat(prod, self._row_starts, axis=1)
        shared = np.concatenate([
            np.einsum("tn,tn->t", np.broadcast_to(perp[0], perp.shape), perp),
            np.einsum("tn,tn->t", perp[1:], perp[1:])])
        return out + shared[:, None]

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
            hit = np.array([spec.penalty(int(k)) for k in self.free_sizes])
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
