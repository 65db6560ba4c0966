"""Interval tree oracle correctness — including hypothesis equivalence with
the naive O(n·m) reference on arbitrary interval sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.interval_tree import (
    ChunkedIntervalForest,
    IntervalTree,
    naive_stab_batch,
)


def _csr_sets(indices, indptr):
    return [
        frozenset(indices[indptr[k] : indptr[k + 1]].tolist())
        for k in range(len(indptr) - 1)
    ]


def test_single_interval_stab():
    t = IntervalTree(np.array([1.0]), np.array([3.0]))
    assert list(t.stab(2.0)) == [0]
    assert list(t.stab(1.0)) == [0]  # inclusive start
    assert list(t.stab(3.0)) == []  # exclusive end
    assert list(t.stab(0.0)) == []


def test_empty_tree():
    t = IntervalTree(np.zeros(0), np.zeros(0))
    iv, indptr = t.stab_batch(np.array([1.0, 2.0]))
    assert len(iv) == 0 and list(indptr) == [0, 0, 0]
    assert t.depth == 0


def test_empty_intervals_never_match():
    t = IntervalTree(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert list(t.stab(1.0)) == []
    assert list(t.stab(2.0)) == []


def test_identical_intervals():
    n = 50
    t = IntervalTree(np.full(n, 5.0), np.full(n, 9.0))
    assert len(t.stab(7.0)) == n
    assert len(t.stab(4.0)) == 0


def test_external_ids():
    ids = np.array([100, 200, 300])
    t = IntervalTree(np.array([0.0, 1.0, 2.0]), np.array([10.0, 2.0, 3.0]), ids=ids)
    got, indptr = t.stab_ids_batch(np.array([1.5]))
    assert set(got[indptr[0] : indptr[1]].tolist()) == {100, 200}


def test_input_validation():
    with pytest.raises(ValueError):
        IntervalTree(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        IntervalTree(np.zeros(2), np.zeros(2), ids=np.zeros(3, dtype=np.int64))
    t = IntervalTree(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        t.stab_batch(np.zeros((2, 2)))


@given(
    data=st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    ),
    queries=st.lists(st.floats(-120, 180, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_tree_matches_naive(data, queries):
    starts = np.array([s for s, _ in data])
    ends = starts + np.array([d for _, d in data])
    ts = np.array(queries)
    tree = IntervalTree(starts, ends)
    got = _csr_sets(*tree.stab_batch(ts))
    want = _csr_sets(*naive_stab_batch(starts, ends, ts))
    assert got == want


@given(
    n=st.integers(1, 200),
    chunk=st.integers(2, 60),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_forest_matches_naive(n, chunk, seed):
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0, 100, n))
    ends = starts + rng.exponential(10, n)
    empty = rng.random(n) < 0.15
    ends[empty] = starts[empty]  # some empty intervals
    overlap = min(chunk - 1, 5)
    forest = ChunkedIntervalForest(starts, ends, chunk_size=chunk, overlap=overlap)
    ts = rng.uniform(-5, 115, 25)
    got = _csr_sets(*forest.stab_batch(ts))
    want = _csr_sets(*naive_stab_batch(starts, ends, ts))
    assert got == want


def test_forest_chunk_count():
    f = ChunkedIntervalForest(np.zeros(250), np.ones(250), chunk_size=100, overlap=10)
    assert f.n_trees == 3
    assert f.n_intervals == 250


def test_forest_dedupes_overlap_region():
    # All intervals identical: every tree matches its whole chunk, and the
    # overlap rows appear in two trees; dedup must keep them once.
    n = 60
    starts = np.zeros(n)
    ends = np.full(n, 10.0)
    f = ChunkedIntervalForest(starts, ends, chunk_size=40, overlap=20)
    hit = f.stab(5.0)
    assert len(hit) == n
    assert len(np.unique(hit)) == n


def test_overlap_query():
    t = IntervalTree(np.array([0.0, 5.0, 10.0]), np.array([4.0, 9.0, 14.0]))
    assert set(t.overlap(3.0, 6.0).tolist()) == {0, 1}
    assert set(t.overlap(4.0, 5.0).tolist()) == set()
    assert len(t.overlap(6.0, 6.0)) == 0  # empty query window


@given(
    n=st.integers(1, 80),
    m=st.integers(1, 20),
    seed=st.integers(0, 5000),
)
@settings(max_examples=40, deadline=None)
def test_overlap_batch_matches_bruteforce(n, m, seed):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, 100, n)
    ends = starts + rng.exponential(10, n)
    degenerate = rng.random(n) < 0.1
    ends[degenerate] = starts[degenerate]  # empty intervals never overlap
    tree = IntervalTree(starts, ends)
    los = rng.uniform(-10, 110, m)
    his = los + rng.exponential(15, m) * (rng.random(m) < 0.9)  # some empty
    iv, ptr = tree.overlap_batch(los, his)
    got = _csr_sets(iv, ptr)
    want = []
    for lo, hi in zip(los, his):
        mask = (starts < hi) & (ends > lo) & (ends > starts) & (hi > lo)
        want.append(frozenset(np.flatnonzero(mask).tolist()))
    assert got == want


def test_overlap_batch_validation():
    t = IntervalTree(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        t.overlap_batch(np.zeros(3), np.zeros(2))


def test_depth_logarithmic():
    n = 4096
    rng = np.random.default_rng(0)
    starts = rng.uniform(0, 1e6, n)
    ends = starts + rng.exponential(100, n)
    t = IntervalTree(starts, ends)
    assert t.depth <= 3 * int(np.log2(n))


def test_naive_block_boundaries():
    # Results identical across block sizes.
    rng = np.random.default_rng(1)
    s = rng.uniform(0, 10, 30)
    e = s + 1.0
    ts = rng.uniform(0, 11, 20)
    a = _csr_sets(*naive_stab_batch(s, e, ts, block=3))
    b = _csr_sets(*naive_stab_batch(s, e, ts, block=1000))
    assert a == b
