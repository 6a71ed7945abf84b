import math

import numpy as np
from hypothesis import given, strategies as st

from subsetci.intervals import EMPTY, FULL_LINE, IntervalUnion, interval_union

from pair_oracle import intersect

INF = math.inf


def test_full_line_is_identity_for_intersection():
    u = interval_union([(-INF, 0.0), (1.0, INF)])
    assert intersect(FULL_LINE, u) == u
    assert intersect(u, FULL_LINE) == u


def test_hand_checked_intersection():
    left = interval_union([(-INF, 0.0), (1.0, INF)])
    right = interval_union([(-1.0, 2.0)])
    expect = interval_union([(-1.0, 0.0), (1.0, 2.0)])
    assert intersect(left, right) == expect


def test_empty_behaviour():
    assert EMPTY.is_empty
    assert intersect(EMPTY, FULL_LINE) == EMPTY
    assert not EMPTY.contains(0.0)
    assert EMPTY.complement() == FULL_LINE


def test_canonicalization_merges_and_sorts():
    u = interval_union([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)])
    assert u.intervals == ((0.0, 2.0), (3.0, 4.0))
    # degenerate pairs vanish
    assert interval_union([(1.0, 1.0), (2.0, 1.5)]).is_empty


def test_canonicalization_idempotent():
    u = interval_union([(0.0, 1.0), (1.0 + 1e-15, 2.0), (5.0, 6.0)])
    again = interval_union(u.intervals)
    assert again == u


def test_merge_tolerance_scales_with_magnitude():
    # gap of 1e-9 at magnitude 1e5 is below the relative threshold? no:
    # 1e-12 * 1e5 = 1e-7 > 1e-9, so adjacent pieces merge
    u = interval_union([(0.0, 1e5), (1e5 + 1e-9, 2e5)])
    assert len(u) == 1
    # a substantial gap stays
    u2 = interval_union([(0.0, 1.0), (1.1, 2.0)])
    assert len(u2) == 2


def test_open_interval_convention_at_endpoints():
    u = interval_union([(0.0, 1.0)])
    assert not u.contains(0.0)
    assert not u.contains(1.0)
    assert u.contains(0.5)


def test_complement_round_trip():
    u = interval_union([(-INF, -1.0), (0.0, 2.0), (5.0, INF)])
    assert u.complement().complement() == u
    # a piece narrower than the merge tolerance is a gap of the complement,
    # which is built from the pieces' ends without a merge
    u = interval_union([(-INF, 0.0), (1.0, 1.0 + 1e-13), (2.0, INF)])
    assert u.complement().intervals == ((0.0, 1.0), (1.0 + 1e-13, 2.0))
    assert u.complement().complement() == u


def test_endpoints_are_the_finite_ends_in_order():
    u = interval_union([(2.0, 5.0), (-1.0, 0.0)])
    assert u.endpoints() == [-1.0, 0.0, 2.0, 5.0]
    assert interval_union([(-INF, 0.0), (1.0, INF)]).endpoints() == [0.0, 1.0]
    assert FULL_LINE.endpoints() == [] and EMPTY.endpoints() == []


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pointwise_membership_oracle(seed):
    # membership of intersect(A, B) must equal membership of A and of B
    rng = np.random.default_rng(seed)

    def random_union():
        cuts = np.sort(rng.uniform(-10, 10, size=rng.integers(2, 8)))
        pairs = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
        if rng.random() < 0.3:
            pairs.append((cuts[-1], INF))
        if rng.random() < 0.3:
            pairs.insert(0, (-INF, cuts[0] - 1.0))
        return interval_union(pairs)

    a, b = random_union(), random_union()
    both = intersect(a, b)
    pts = rng.uniform(-12, 12, size=200)
    for t in pts:
        assert both.contains(t) == (a.contains(t) and b.contains(t))


def test_construction_requires_ordered_pairs():
    u = IntervalUnion(((0.0, 1.0),))
    assert u.contains(0.5)
