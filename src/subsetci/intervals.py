"""Finite unions of disjoint open intervals on the extended real line.

All intervals are open; endpoint membership resolves to "outside".  Unions
are kept in a canonical form (sorted, disjoint, tiny gaps merged) so that
equal point sets compare equal.

Inside the pipeline, regions are rows of padded (rows, W) arrays ``lo``/``hi``:
each row's pieces in increasing order, then empty ``(0, 0)`` pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

INF = math.inf

# Gaps narrower than MERGE_REL * max(1, |endpoint|) are floating-point
# slivers left over from intersecting many comparison sets; merge them.
MERGE_REL = 1e-12


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical union of open intervals ``(lo, hi)`` with ``lo < hi``.

    Construct through :func:`interval_union`, which canonicalizes; the raw
    constructor trusts its input.
    """

    intervals: Tuple[Tuple[float, float], ...]

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @classmethod
    def from_row(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalUnion":
        """The union held by one (canonical) padded row."""
        return cls(tuple((a, b) for a, b in zip(lo.tolist(), hi.tolist()) if a < b))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t: float) -> bool:
        """Strict interior membership (endpoints count as outside)."""
        return any(lo < t < hi for lo, hi in self.intervals)

    def complement(self) -> "IntervalUnion":
        """Open complement; shared endpoints (measure zero) are dropped."""
        ends = [-INF, *(end for piece in self.intervals for end in piece), INF]
        # the pieces are sorted and disjoint, so their gaps need no merge
        return IntervalUnion(tuple((lo, hi) for lo, hi in zip(ends[::2], ends[1::2])
                                   if lo < hi))

    def endpoints(self) -> list[float]:
        """All finite endpoints, in increasing order."""
        out = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                out.append(lo)
            if math.isfinite(hi):
                out.append(hi)
        return out

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " U ".join(f"({lo:g}, {hi:g})" for lo, hi in self.intervals)


def interval_union(pairs: Iterable[Tuple[float, float]]) -> IntervalUnion:
    """Canonicalize ``pairs`` into an :class:`IntervalUnion`.

    Degenerate pairs (``hi <= lo``) are dropped; overlapping or
    nearly-adjacent intervals are merged.
    """
    kept = sorted((float(lo), float(hi)) for lo, hi in pairs if lo < hi)
    if not kept:
        return EMPTY
    merged = [kept[0]]
    for lo, hi in kept[1:]:
        plo, phi = merged[-1]
        if lo - phi <= MERGE_REL * max(1.0, abs(phi), abs(lo)):
            merged[-1] = (plo, max(phi, hi))
        else:
            merged.append((lo, hi))
    return IntervalUnion(tuple(merged))


def padded_rows(regions: Sequence[IntervalUnion]) -> Tuple[np.ndarray, np.ndarray]:
    """The padded ``(lo, hi)`` rows of ``regions``, one row per union, as
    wide as the longest union (at least one column)."""
    width = max([1] + [len(r) for r in regions])
    lo, hi = np.zeros((2, len(regions), width))
    for i, region in enumerate(regions):
        for j, (a, b) in enumerate(region):
            lo[i, j], hi[i, j] = a, b
    return lo, hi


EMPTY = IntervalUnion(())
FULL_LINE = IntervalUnion(((-INF, INF),))
