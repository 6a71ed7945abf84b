"""Dense least-squares primitives for submodels of a fixed design.

Everything here is deterministic and pure.  ``Dataset`` memoizes the thin QR
factorization of each submodel's columns (keyed on the design only, never on
the response), so repeated work against the same design is cheap; the cache
is an optimization and never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from scipy.linalg import qr, solve_triangular

from . import errors

INTERCEPT_NONE = "none"
INTERCEPT_FORCED = "forced_first_column"

# A submodel is rank deficient when the smallest |diag(R)| of its thin QR
# falls below this fraction of the largest.  Deficient submodels raise
# rather than being skipped: dropping candidates silently would change
# which response vectors select a given model.
RANK_TOL = 1e-10


@dataclass(frozen=True, order=True)
class IndexSet:
    """A candidate submodel: sorted, duplicate-free 1-based column indices."""

    indices: Tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise errors.IndexOutOfRange(
                f"indices must be sorted and duplicate-free, got {idx}")
        if idx and idx[0] < 1:
            raise errors.IndexOutOfRange(f"column indices are 1-based, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.indices)

    def position_of(self, i: int) -> int:
        """0-based position of column ``i`` within this set."""
        try:
            return self.indices.index(i)
        except ValueError:
            raise errors.IndexNotInModel(f"column {i} not in model {self}") from None

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


def _require_finite_response(y: np.ndarray) -> None:
    if not np.isfinite(y).all():
        raise errors.InputError("the response holds a non-finite value")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A fixed design matrix with response and column names.

    ``intercept_policy`` is either ``"none"`` or ``"forced_first_column"``;
    a forced first column takes part in every fit but does not count toward
    model size in information criteria (the classical residual degrees of
    freedom ``n - size - 1`` absorb it).
    """

    X: np.ndarray
    y: np.ndarray
    column_names: Tuple[str, ...]
    intercept_policy: str = INTERCEPT_NONE
    _cache: Dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float)).reshape(-1)
        if X.ndim != 2:
            raise errors.DimensionMismatch("X must be a 2-d matrix")
        n, p = X.shape
        if y.shape[0] != n:
            raise errors.DimensionMismatch(
                f"y has length {y.shape[0]}, expected {n}")
        if not (n > p >= 1):
            raise errors.DimensionMismatch(
                f"need n > p >= 1, got n={n}, p={p}")
        names = tuple(str(c) for c in self.column_names)
        if len(names) != p:
            raise errors.DimensionMismatch(
                f"{len(names)} column names for {p} columns")
        if len(set(names)) != p:
            raise errors.ParseError("column names must be unique")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
        if bad.size:
            raise errors.InputError(
                f"column {names[bad[0]]!r} holds a non-finite value")
        _require_finite_response(y)
        if self.intercept_policy not in (INTERCEPT_NONE, INTERCEPT_FORCED):
            raise errors.InputError(
                f"unknown intercept policy {self.intercept_policy!r}")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "column_names", names)
        # full-rank check on the complete design
        _, rdiag = self._qr_of(tuple(range(1, p + 1)))
        del rdiag  # raises inside _qr_of if deficient

    # -- basic shape helpers --------------------------------------------

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def forced_indices(self) -> Tuple[int, ...]:
        return (1,) if self.intercept_policy == INTERCEPT_FORCED else ()

    @property
    def free_indices(self) -> Tuple[int, ...]:
        forced = set(self.forced_indices)
        return tuple(i for i in range(1, self.p + 1) if i not in forced)

    def full_model(self) -> IndexSet:
        return IndexSet(tuple(range(1, self.p + 1)))

    def name_of(self, i: int) -> str:
        return self.column_names[i - 1]

    def index_of(self, name: str) -> int:
        try:
            return self.column_names.index(name) + 1
        except ValueError:
            raise errors.IndexOutOfRange(f"no column named {name!r}") from None

    def free_size(self, S: IndexSet) -> int:
        """Model size as counted by information criteria (forced columns excluded)."""
        forced = set(self.forced_indices)
        return sum(1 for i in S.indices if i not in forced)

    def df_residual(self, S: IndexSet) -> int:
        return self.n - self.free_size(S) - 1

    def validate_model(self, S: IndexSet) -> None:
        if S.indices and S.indices[-1] > self.p:
            raise errors.IndexOutOfRange(
                f"model {S} references column beyond p={self.p}")
        for i in self.forced_indices:
            if S.indices and i not in S:
                raise errors.IndexOutOfRange(
                    f"forced column {i} missing from model {S}")

    def replace_y(self, y: np.ndarray) -> "Dataset":
        """Same design (sharing its factorization cache), different response."""
        new = Dataset.__new__(Dataset)
        yy = np.ascontiguousarray(np.asarray(y, dtype=float)).reshape(-1)
        if yy.shape[0] != self.n:
            raise errors.DimensionMismatch(
                f"y has length {yy.shape[0]}, expected {self.n}")
        _require_finite_response(yy)
        yy.flags.writeable = False
        object.__setattr__(new, "X", self.X)
        object.__setattr__(new, "y", yy)
        object.__setattr__(new, "column_names", self.column_names)
        object.__setattr__(new, "intercept_policy", self.intercept_policy)
        object.__setattr__(new, "_cache", self._cache)
        return new

    # -- factorizations ---------------------------------------------------

    def _qr_of(self, key: Tuple[int, ...]):
        """Thin QR (Q, R) of the columns ``key``; cached; rank-checked."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not key:
            q = np.zeros((self.n, 0))
            r = np.zeros((0, 0))
            self._cache[key] = (q, r)
            return q, r
        cols = [i - 1 for i in key]
        q, r = qr(self.X[:, cols], mode="economic", check_finite=False)
        d = np.abs(np.diag(r))
        if d.size and d.min() < RANK_TOL * max(d.max(), np.finfo(float).tiny):
            raise errors.RankDeficient(
                "submodel columns are collinear beyond tolerance",
                model=IndexSet(key))
        q.flags.writeable = False
        r.flags.writeable = False
        self._cache[key] = (q, r)
        return q, r


def adjusted_coefficients(
    data: Dataset, S: IndexSet, mean_vector: np.ndarray
) -> np.ndarray:
    """Population regression coefficient of ``mean_vector`` on the columns of ``S``.

    This is the natural inference target for a submodel: the coefficient the
    submodel would estimate on average.  When the mean is a linear combination
    of the columns of some true support contained in ``S``, the result equals
    the true coefficients on ``S`` (zeros elsewhere).
    """
    data.validate_model(S)
    m = np.asarray(mean_vector, dtype=float).reshape(-1)
    if m.shape[0] != data.n:
        raise errors.DimensionMismatch(
            f"mean vector has length {m.shape[0]}, expected {data.n}")
    q, r = data._qr_of(S.indices)
    if not len(S):
        return np.zeros(0)
    return solve_triangular(r, q.T @ m, check_finite=False)
