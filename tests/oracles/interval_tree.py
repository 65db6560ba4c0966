"""Centred interval trees with vectorised batch stabbing: the stabbing oracle.

The paper's feature engineering needs, for every job's eligibility instant
``t``, the set of jobs whose pending interval ``[eligible, start)`` or run
interval ``[start, end)`` contains ``t`` — millions of stabbing queries over
millions of intervals.  The paper's solution, reproduced here, is interval
trees built over chunks of 100 000 jobs with a 10 000-job overlap, queried
independently and merged.

This implementation goes one step further than a textbook tree: stabbing
queries are *batched*.  The query set is pushed down the tree as arrays, and
at each node the matching (query, interval) pairs are emitted with pure
NumPy prefix arithmetic, so the per-query Python overhead is amortised over
the whole batch — the vectorise-the-loop discipline of the hpc-parallel
guides.

All intervals are half-open ``[start, end)``: a point ``t`` is covered when
``start <= t < end``.  Empty intervals (``end <= start``) are legal and
never match.

The product (:mod:`repro.features.snapshots`) needs no tree, because its
queries are the intervals' own eligibility times: one sort turns each
stab into a contiguous range.  These trees are what it is checked
against, and what the A1 bench times against the naive scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import JobSet
from repro.features.snapshots import SNAPSHOT_KEYS

__all__ = [
    "ChunkedIntervalForest",
    "IntervalTree",
    "forest_snapshots",
    "naive_stab_batch",
]


@dataclass
class _Node:
    """One node of the centred tree.

    ``ids_by_start`` / ``ids_by_end`` index the *original* interval arrays;
    both hold the same interval set (those straddling ``center``), ordered
    by ascending start and descending end respectively.
    """

    center: float
    starts_sorted: np.ndarray  # ascending starts of straddling intervals
    ends_sorted_desc: np.ndarray  # descending ends of the same intervals
    ids_by_start: np.ndarray
    ids_by_end: np.ndarray
    left: "_Node | None"
    right: "_Node | None"


class IntervalTree:
    """Static centred interval tree over parallel ``starts`` / ``ends``.

    Parameters
    ----------
    starts, ends:
        Parallel 1-D arrays defining half-open intervals ``[start, end)``.
    ids:
        Optional external identifiers returned by queries; defaults to the
        positional index ``0..n-1``.
    """

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> None:
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValueError(
                f"starts/ends must be equal-length 1-D arrays, got "
                f"{starts.shape} and {ends.shape}"
            )
        if ids is None:
            ids = np.arange(len(starts), dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape != starts.shape:
                raise ValueError("ids must parallel starts/ends")
        self.starts = starts
        self.ends = ends
        self.ids = ids
        # Drop empty intervals up front: they can never match a stab.
        live = np.flatnonzero(ends > starts)
        self.n_intervals = len(starts)
        self._root = self._build(live) if len(live) else None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, idx: np.ndarray) -> _Node | None:
        if len(idx) == 0:
            return None
        s = self.starts[idx]
        e = self.ends[idx]
        # Median of all endpoints keeps the tree balanced for clustered data.
        center = float(np.median(np.concatenate([s, e])))
        straddle = (s <= center) & (center < e)
        left_mask = e <= center
        right_mask = s > center
        node_idx = idx[straddle]
        ns = self.starts[node_idx]
        ne = self.ends[node_idx]
        order_s = np.argsort(ns, kind="stable")
        order_e = np.argsort(-ne, kind="stable")
        left_idx = idx[left_mask]
        right_idx = idx[right_mask]
        # Degenerate split guard: if nothing straddles and one side holds
        # everything, recursion would not shrink — split that side by rank.
        if len(node_idx) == 0 and (len(left_idx) == len(idx) or len(right_idx) == len(idx)):
            side = left_idx if len(left_idx) == len(idx) else right_idx
            half = len(side) // 2
            order = np.argsort(self.starts[side], kind="stable")
            side = side[order]
            lo, hi = side[:half], side[half:]
            # Promote one interval to the node to guarantee progress.
            promoted = hi[:1]
            hi = hi[1:]
            ps = self.starts[promoted]
            pe = self.ends[promoted]
            return _Node(
                center=float(ps[0]),
                starts_sorted=ps,
                ends_sorted_desc=pe,
                ids_by_start=promoted.astype(np.int64),
                ids_by_end=promoted.astype(np.int64),
                left=self._build(lo),
                right=self._build(hi),
            )
        return _Node(
            center=center,
            starts_sorted=ns[order_s],
            ends_sorted_desc=ne[order_e],
            ids_by_start=node_idx[order_s].astype(np.int64),
            ids_by_end=node_idx[order_e].astype(np.int64),
            left=self._build(left_idx),
            right=self._build(right_idx),
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def stab(self, t: float) -> np.ndarray:
        """Positional indices of all intervals containing point ``t``."""
        idx, indptr = self.stab_batch(np.asarray([t], dtype=np.float64))
        return idx[indptr[0] : indptr[1]]

    def stab_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched stabbing query.

        Parameters
        ----------
        ts:
            1-D array of query points.

        Returns
        -------
        (indices, indptr):
            CSR layout — matches for query ``k`` are
            ``indices[indptr[k]:indptr[k+1]]`` (positional interval indices,
            unordered).
        """
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"ts must be 1-D, got shape {ts.shape}")
        m = len(ts)
        pair_q: list[np.ndarray] = []
        pair_i: list[np.ndarray] = []
        if self._root is not None and m:
            stack: list[tuple[_Node, np.ndarray]] = [
                (self._root, np.arange(m, dtype=np.intp))
            ]
            while stack:
                node, qidx = stack.pop()
                tq = ts[qidx]
                lt = tq < node.center
                gt = tq > node.center
                eq = ~lt & ~gt
                # t < center: matching straddlers have start <= t.
                q_lt = qidx[lt]
                if len(q_lt):
                    counts = np.searchsorted(
                        node.starts_sorted, ts[q_lt], side="right"
                    )
                    _emit(pair_q, pair_i, q_lt, counts, node.ids_by_start)
                    if node.left is not None:
                        stack.append((node.left, q_lt))
                # t > center: matching straddlers have end > t.
                q_gt = qidx[gt]
                if len(q_gt):
                    # ends_sorted_desc is descending; count of ends > t is
                    # the insertion point in the ascending reversed array.
                    counts = len(node.ends_sorted_desc) - np.searchsorted(
                        node.ends_sorted_desc[::-1], ts[q_gt], side="right"
                    )
                    _emit(pair_q, pair_i, q_gt, counts, node.ids_by_end)
                    if node.right is not None:
                        stack.append((node.right, q_gt))
                # t == center: every straddler matches.
                q_eq = qidx[eq]
                if len(q_eq):
                    k = len(node.ids_by_start)
                    if k:
                        counts = np.full(len(q_eq), k, dtype=np.intp)
                        _emit(pair_q, pair_i, q_eq, counts, node.ids_by_start)
        if pair_q:
            qs = np.concatenate(pair_q)
            iv = np.concatenate(pair_i)
        else:
            qs = np.zeros(0, dtype=np.intp)
            iv = np.zeros(0, dtype=np.int64)
        order = np.argsort(qs, kind="stable")
        qs = qs[order]
        iv = iv[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, qs + 1, 1)
        np.cumsum(indptr, out=indptr)
        return iv, indptr

    def stab_ids_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`stab_batch` but returns external ``ids``."""
        iv, indptr = self.stab_batch(ts)
        return self.ids[iv], indptr

    def overlap(self, lo: float, hi: float) -> np.ndarray:
        """Positional indices of intervals overlapping ``[lo, hi)``.

        An interval ``[s, e)`` overlaps iff ``s < hi`` and ``e > lo``.
        """
        if hi <= lo or self._root is None:
            return np.zeros(0, dtype=np.intp)
        mask = (self.starts < hi) & (self.ends > lo) & (self.ends > self.starts)
        return np.flatnonzero(mask)

    def overlap_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched window-overlap query in CSR layout.

        A window ``[lo, hi)`` overlaps interval ``[s, e)`` iff the interval
        stabs at ``lo`` **or** starts inside ``[lo, hi)`` — so the batched
        stab machinery plus one ``searchsorted`` over the start-sorted
        interval list answers every window without O(n·m) work.
        """
        los = np.ascontiguousarray(los, dtype=np.float64)
        his = np.ascontiguousarray(his, dtype=np.float64)
        if los.shape != his.shape or los.ndim != 1:
            raise ValueError("los/his must be equal-length 1-D arrays")
        m = len(los)
        stab_iv, stab_ptr = self.stab_batch(los)
        live = self.ends > self.starts
        order = np.argsort(self.starts, kind="stable")
        order = order[live[order]]
        starts_sorted = self.starts[order]
        pair_q: list[np.ndarray] = []
        pair_i: list[np.ndarray] = []
        for k in range(m):
            if his[k] <= los[k]:
                continue  # empty window overlaps nothing
            hits = set(stab_iv[stab_ptr[k] : stab_ptr[k + 1]].tolist())
            lo_pos = np.searchsorted(starts_sorted, los[k], side="left")
            hi_pos = np.searchsorted(starts_sorted, his[k], side="left")
            hits.update(order[lo_pos:hi_pos].tolist())
            if hits:
                arr = np.fromiter(hits, dtype=np.int64)
                pair_q.append(np.full(len(arr), k, dtype=np.intp))
                pair_i.append(arr)
        if pair_q:
            qs = np.concatenate(pair_q)
            iv = np.concatenate(pair_i)
        else:
            qs = np.zeros(0, dtype=np.intp)
            iv = np.zeros(0, dtype=np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, qs + 1, 1)
        np.cumsum(indptr, out=indptr)
        order2 = np.argsort(qs, kind="stable")
        return iv[order2], indptr

    @property
    def depth(self) -> int:
        """Tree height (0 for an empty tree)."""

        def _d(node: _Node | None) -> int:
            if node is None:
                return 0
            return 1 + max(_d(node.left), _d(node.right))

        return _d(self._root)


def _emit(
    pair_q: list[np.ndarray],
    pair_i: list[np.ndarray],
    qidx: np.ndarray,
    counts: np.ndarray,
    ids_sorted: np.ndarray,
) -> None:
    """Append the (query, interval) pairs for per-query prefix matches.

    ``counts[k]`` is how many leading entries of ``ids_sorted`` match query
    ``qidx[k]``; the expansion is pure prefix arithmetic (no Python loop).
    """
    total = int(counts.sum())
    if total == 0:
        return
    counts = counts.astype(np.intp, copy=False)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.intp) - offsets
    pair_q.append(np.repeat(qidx, counts))
    pair_i.append(ids_sorted[within])


def _overlapping_chunks(
    n: int, chunk_size: int, overlap: int
) -> list[tuple[int, int]]:
    """Half-open ``[start, stop)`` windows of ``chunk_size`` with ``overlap``.

    The paper's decomposition: "groupings of 100,000 jobs with an overlap
    of 10,000 jobs between trees".  Consecutive windows advance by
    ``chunk_size - overlap`` and the final window is clipped to ``n``.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if not 0 <= overlap < chunk_size:
        raise ValueError(f"overlap must be in [0, chunk_size), got {overlap}")
    if n <= 0:
        return []
    step = chunk_size - overlap
    out: list[tuple[int, int]] = []
    start = 0
    while True:
        stop = min(start + chunk_size, n)
        out.append((start, stop))
        if stop >= n:
            break
        start += step
    return out


class ChunkedIntervalForest:
    """The paper's chunked interval-tree scheme.

    Intervals are split (in the given order) into chunks of ``chunk_size``
    with ``overlap`` shared between consecutive chunks — the paper used
    100 000 and 10 000 — one tree per chunk.  Queries fan out to the trees
    whose time span can contain the point and results are merged with
    duplicates (from the overlap regions) removed, i.e. the trees are
    "merged back together after finishing".

    Chunking bounds per-tree build cost.  Every interval lands in at
    least one chunk and every tree whose span can hold a query is asked,
    so the merged answer is exact for any chunking.
    """

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        chunk_size: int = 100_000,
        overlap: int = 10_000,
    ) -> None:
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise ValueError("starts/ends must be equal-length 1-D arrays")
        self.n_intervals = len(starts)
        self.chunk_size = chunk_size
        self.overlap = overlap
        self._trees: list[IntervalTree] = []
        self._spans: list[tuple[float, float]] = []
        for lo, hi in _overlapping_chunks(len(starts), chunk_size, overlap):
            s, e = starts[lo:hi], ends[lo:hi]
            self._trees.append(IntervalTree(s, e, ids=np.arange(lo, hi)))
            live = e > s
            self._spans.append(
                (float(s[live].min()), float(e[live].max()))
                if np.any(live)
                else (np.inf, -np.inf)
            )

    @property
    def n_trees(self) -> int:
        """Number of chunk trees."""
        return len(self._trees)

    def stab_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Merged batched stab over all chunk trees (CSR layout).

        Matches are global positional indices, deduplicated per query and
        sorted ascending within each query.
        """
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        m = len(ts)
        all_q: list[np.ndarray] = []
        all_i: list[np.ndarray] = []
        for tree, (lo, hi) in zip(self._trees, self._spans):
            sel = np.flatnonzero((ts >= lo) & (ts < hi))
            if not len(sel):
                continue
            ids, indptr = tree.stab_ids_batch(ts[sel])
            counts = np.diff(indptr)
            if ids.size:
                all_q.append(np.repeat(sel, counts))
                all_i.append(ids)
        if not all_q:
            return np.zeros(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        qs = np.concatenate(all_q)
        iv = np.concatenate(all_i)
        # Deduplicate (query, interval) pairs introduced by chunk overlap.
        order = np.lexsort((iv, qs))
        qs = qs[order]
        iv = iv[order]
        keep = np.ones(len(qs), dtype=bool)
        keep[1:] = (qs[1:] != qs[:-1]) | (iv[1:] != iv[:-1])
        qs = qs[keep]
        iv = iv[keep]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, qs + 1, 1)
        np.cumsum(indptr, out=indptr)
        return iv, indptr

    def stab(self, t: float) -> np.ndarray:
        """Single-point stab returning global positional indices."""
        iv, indptr = self.stab_batch(np.asarray([t], dtype=np.float64))
        return iv[indptr[0] : indptr[1]]


def naive_stab_batch(
    starts: np.ndarray,
    ends: np.ndarray,
    ts: np.ndarray,
    block: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """O(n·m) stabbing baseline for the A1 ablation.

    Broadcast comparison in query blocks of ``block`` to bound peak memory.
    Returns the same CSR layout as :meth:`IntervalTree.stab_batch`, with
    matches sorted ascending per query.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    m = len(ts)
    chunks_i: list[np.ndarray] = []
    counts = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        tq = ts[lo:hi, None]
        hit = (starts[None, :] <= tq) & (tq < ends[None, :])
        qk, ik = np.nonzero(hit)
        chunks_i.append(ik.astype(np.int64))
        np.add.at(counts, qk + lo, 1)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(chunks_i) if chunks_i else np.zeros(0, dtype=np.int64)
    )
    return indices, indptr


def forest_snapshots(
    jobs: JobSet,
    pred_runtime_min: np.ndarray | None = None,
    chunk_size: int = 100_000,
    overlap: int = 10_000,
) -> dict[str, np.ndarray]:
    """Partition snapshot aggregates through the chunked forest.

    The reference for :func:`repro.features.snapshots.partition_snapshots`:
    per partition, one forest over the pending intervals ``[eligible,
    start)`` and one over the running intervals ``[start, end)``, stabbed
    at every eligibility instant.  Each query's matches come back in
    ascending source order and are summed with ``np.bincount``.
    """
    rec = jobs.records
    n = len(jobs)
    if pred_runtime_min is None:
        pred = rec["timelimit_min"].astype(np.float64)
    else:
        pred = np.asarray(pred_runtime_min, dtype=np.float64)
    values = {
        "cpus": rec["req_cpus"].astype(np.float64),
        "mem": rec["req_mem_gb"].astype(np.float64),
        "nodes": rec["req_nodes"].astype(np.float64),
        "timelimit": rec["timelimit_min"].astype(np.float64),
    }
    out = {k: np.zeros(n) for k in SNAPSHOT_KEYS}

    def add(prefix: str, qq: np.ndarray, mi: np.ndarray, g: np.ndarray) -> None:
        m = len(g)
        out[f"par_jobs_{prefix}"][g] += np.bincount(qq, minlength=m)
        for key, vals in values.items():
            out[f"par_{key}_{prefix}"][g] += np.bincount(
                qq, weights=vals[g][mi], minlength=m
            )

    for p in np.unique(rec["partition"]):
        g = np.flatnonzero(rec["partition"] == p)
        elig = rec["eligible_time"][g]
        kinds = {"queue": rec["start_time"][g], "running": rec["end_time"][g]}
        lows = {"queue": elig, "running": rec["start_time"][g]}
        for kind, highs in kinds.items():
            forest = ChunkedIntervalForest(lows[kind], highs, chunk_size, overlap)
            iv, indptr = forest.stab_batch(elig)
            qids = np.repeat(np.arange(len(g)), np.diff(indptr))
            not_self = iv != qids
            qq, mi = qids[not_self], iv[not_self]
            add(kind, qq, mi, g)
            out[f"par_{kind}_pred_timelimit"][g] += np.bincount(
                qq, weights=pred[g][mi], minlength=len(g)
            )
            if kind == "queue":
                prio = rec["priority"][g]
                ahead = prio[mi] > prio[qq]
                add("ahead", qq[ahead], mi[ahead], g)
    return out
