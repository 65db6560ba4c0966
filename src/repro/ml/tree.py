"""CART regression trees with histogram split search.

Trees are grown one depth level at a time over features quantile-binned
to uint8 once per fit (:mod:`repro.ml.binning`): per-node (grad, count)
histograms come from one flattened ``np.bincount``, every bin boundary is
scored in a single cumulative-sum pass, and sibling histograms are
derived by subtraction.  Thresholds live in raw feature space, so
prediction walks the flat node arrays level-synchronously for whole
batches of unbinned rows at once.

Every tree is grown on squared loss, so the hessian is 1 per row and the
count histogram serves as the hessian.  Two split criteria share the
machinery:

- ``"mse"`` — classic variance reduction, leaf value = mean(y).
- ``"xgb"`` — second-order gain with L2 regularisation λ, leaf value
  = −G/(H+λ); this is the XGBoost objective used by
  :class:`repro.ml.boosting.GradientBoostingRegressor`.

The exact sorted search that this one is checked against lives in
``tests/oracles/exact_tree.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import Regressor
from repro.ml.binning import (
    BinnedMatrix,
    evaluate_splits,
    grouped_histograms,
    sampled_histograms,
)
from repro.utils.rng import default_rng
from repro.utils.validation import check_2d, check_fitted

__all__ = ["DecisionTreeRegressor", "Tree"]

_LEAF = -1


@dataclass
class Tree:
    """Flat array representation of a fitted tree.

    ``feature[i] == -1`` marks a leaf whose prediction is ``value[i]``;
    internal nodes route ``x[feature] <= threshold`` to ``left``, else
    ``right``.
    """

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32 child ids
    right: np.ndarray
    value: np.ndarray  # float64 leaf predictions
    n_samples: np.ndarray  # int64 training samples per node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == _LEAF))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised batch prediction: the value of each row's leaf."""
        return self.value[self.apply(X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for each row, by level-synchronous descent."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int32)
        active = self.feature[node] != _LEAF
        while np.any(active):
            idx = np.flatnonzero(active)
            nd = node[idx]
            f = self.feature[nd]
            go_left = X[idx, f] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] != _LEAF
        return node

    def decision_depth(self) -> int:
        """Height of the tree (leaf-only tree has depth 0)."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        # Children always have larger indices than parents (build order),
        # so one forward pass computes depths.
        for i in range(self.n_nodes):
            if self.feature[i] != _LEAF:
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
        return int(depth.max()) if self.n_nodes else 0


#: Cap (in float64 entries) on transient per-level histogram blocks; levels
#: whose eval-node histograms would exceed it are processed in slot blocks
#: without retaining hists for subtraction.
_HIST_ENTRY_BUDGET = 1 << 23


class _Builder:
    """Grows one tree on squared-loss gradients; shared by CART and boosting.

    Growth is level-synchronous over a :class:`BinnedMatrix`: histograms
    for every splittable node of a level come from a single flattened
    ``np.bincount`` (cost ``O(live_rows × F)`` per level, independent of
    node count), all bin boundaries of all features of all nodes are
    scored in one cumulative-sum pass, and below the root only each pair's
    smaller child is accumulated — its sibling's histogram is the parent's
    minus the smaller child's.  Hessians are 1 per row, so a node's
    hessian sum is its row count.
    """

    def __init__(
        self,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        lam: float,
        min_gain: float,
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.lam = lam
        self.min_gain = min_gain
        self.rng = rng

    def build(self, bm: BinnedMatrix, g: np.ndarray) -> Tree:
        """Grow a tree on binned codes and per-row gradients ``g``."""
        f_all = bm.n_features
        n = bm.n_rows
        rows = np.arange(n, dtype=np.intp)  # rows still in splittable nodes
        slot = np.zeros(n, dtype=np.intp)  # level-local node index per row
        cnt = np.array([n], dtype=np.int64)
        gsum = np.array([g.sum()])
        depth = 0
        blocks: list[tuple[np.ndarray, ...]] = []  # one node block per level
        lo = 0  # node id of the level's first node
        # Histograms of the previous level's split nodes, ordered by pair:
        # child slots 2t / 2t+1 descend from parent_hists[t].
        parent_hists: tuple[np.ndarray, np.ndarray] | None = None
        while True:
            k = len(cnt)
            feature = np.full(k, _LEAF, dtype=np.int32)
            threshold = np.zeros(k)
            left = np.full(k, _LEAF, dtype=np.int32)
            right = np.full(k, _LEAF, dtype=np.int32)
            value = -gsum / (cnt + self.lam)
            # Splitting nodes mutate this block in place below.
            blocks.append((feature, threshold, left, right, value, cnt))
            if depth >= self.max_depth:
                break
            eligible = np.flatnonzero(cnt >= self.min_samples_split)
            if not len(eligible):
                break
            feat_mask = fcols = None
            if self.max_features is not None and self.max_features < f_all:
                # One vectorised draw for the whole level: each node keeps
                # the max_features features with the smallest uniforms
                # (a without-replacement sample per node).
                u = self.rng.random((len(eligible), f_all))
                keep_f = np.argpartition(u, self.max_features - 1, axis=1)
                fcols = keep_f[:, : self.max_features].astype(np.intp)
                feat_mask = np.zeros((len(eligible), f_all), dtype=bool)
                np.put_along_axis(feat_mask, fcols, True, axis=1)
            gain, best_f, best_thr, best_b, lg, lc, ev_hists = (
                self._level_splits(
                    bm, rows, slot, cnt, gsum, eligible, parent_hists,
                    g, feat_mask, fcols,
                )
            )
            win = np.flatnonzero(gain > self.min_gain)
            if not len(win):
                break
            # Children are created in ascending slot order, so the next
            # level's ids are contiguous and pair t sits at slots 2t/2t+1.
            s = eligible[win]
            new_lo = lo + k
            nw = len(win)
            feature[s] = best_f[win]
            threshold[s] = best_thr[win]
            left[s] = new_lo + 2 * np.arange(nw, dtype=np.int32)
            right[s] = left[s] + 1
            parent_hists = (
                None if ev_hists is None else (ev_hists[0][win], ev_hists[1][win])
            )
            # Children's node statistics come from the chosen split's
            # left-side sums — no per-row rescan.
            cnt_next = np.empty(2 * nw, dtype=np.int64)
            cnt_next[0::2] = lc[win].astype(np.int64)
            cnt_next[1::2] = cnt[s] - cnt_next[0::2]
            gsum_next = np.empty(2 * nw)
            gsum_next[0::2] = lg[win]
            gsum_next[1::2] = gsum[s] - lg[win]
            # Route rows of split nodes to their children; drop leaf rows.
            # Splits compare in global-code space (offset[f] + bin), so
            # only ``global_codes`` is touched per row.
            split_t = np.full(k, -1, dtype=np.intp)
            split_t[s] = np.arange(nw, dtype=np.intp)
            f_w = best_f[win].astype(np.intp)
            gb_w = bm.offsets[f_w] + best_b[win]
            t_row = split_t[slot]
            ix = np.flatnonzero(t_row >= 0)
            rows = rows.take(ix)
            t = t_row.take(ix)
            go_right = bm.global_codes[rows, f_w.take(t)] > gb_w.take(t)
            slot = 2 * t
            slot += go_right
            cnt, gsum = cnt_next, gsum_next
            lo = new_lo
            depth += 1
        return Tree(
            feature=np.concatenate([b[0] for b in blocks]),
            threshold=np.concatenate([b[1] for b in blocks]),
            left=np.concatenate([b[2] for b in blocks]),
            right=np.concatenate([b[3] for b in blocks]),
            value=np.concatenate([b[4] for b in blocks]),
            n_samples=np.concatenate([b[5] for b in blocks]),
        )

    def _level_splits(
        self,
        bm: BinnedMatrix,
        rows: np.ndarray,
        slot: np.ndarray,
        cnt: np.ndarray,
        gsum: np.ndarray,
        eligible: np.ndarray,
        parent_hists: tuple[np.ndarray, np.ndarray] | None,
        g: np.ndarray,
        feat_mask: np.ndarray | None,
        fcols: np.ndarray | None,
    ) -> tuple[np.ndarray, ...]:
        """Best split per eligible slot.

        Returns per-eligible-node (gain, feature, threshold, bin,
        left_grad, left_count) plus the eligible nodes' (grad, count)
        histograms (for next-level sibling subtraction), or ``None`` for
        the latter when subtraction does not apply (feature-subsampled
        levels, or levels over the histogram memory budget).

        With feature subsampling on (``fcols`` given), only each node's
        drawn columns are accumulated (:func:`sampled_histograms`) and the
        node totals come from the builder's running sums; sibling
        subtraction is skipped because children draw fresh feature
        subsets, making parent histograms non-reusable.  Without
        subsampling, every slot is accumulated directly at the root and
        below it only each pair's smaller child is — its sibling's
        histogram is the parent's minus the smaller child's.
        """
        w = bm.width
        ne = len(eligible)
        lam, min_leaf = self.lam, self.min_samples_leaf
        if fcols is not None:
            lut = np.full(len(cnt), -1, dtype=np.intp)
            lut[eligible] = np.arange(ne)
            grp = lut[slot]
            m = grp >= 0
            r, gm = (rows, grp) if m.all() else (rows[m], grp[m])
            totals = (gsum[eligible], cnt[eligible])
            if ne * w > _HIST_ENTRY_BUDGET:
                # Rare huge level: bound memory by scoring nodes in blocks.
                block = max(1, _HIST_ENTRY_BUDGET // w)
                parts = []
                for a in range(0, ne, block):
                    nb = min(block, ne - a)
                    mb = (gm >= a) & (gm < a + nb)
                    grad, count = sampled_histograms(
                        bm, r[mb], gm[mb] - a, nb, g, fcols[a : a + nb]
                    )
                    parts.append(
                        evaluate_splits(
                            grad, count, bm, min_leaf, lam,
                            feat_mask[a : a + nb],
                            totals=tuple(t[a : a + nb] for t in totals),
                        )
                    )
                return tuple(
                    np.concatenate([p[i] for p in parts]) for i in range(6)
                ) + (None,)
            grad, count = sampled_histograms(bm, r, gm, ne, g, fcols)
            out = evaluate_splits(
                grad, count, bm, min_leaf, lam, feat_mask, totals=totals
            )
            return out + (None,)

        if ne * w > _HIST_ENTRY_BUDGET:
            # Rare huge level: bound memory by scoring eligible slots in
            # blocks and skip histogram retention (next level goes direct).
            block = max(1, _HIST_ENTRY_BUDGET // w)
            parts = []
            for a in range(0, ne, block):
                sub = eligible[a : a + block]
                lut = np.full(len(cnt), -1, dtype=np.intp)
                lut[sub] = np.arange(len(sub))
                grp = lut[slot]
                m = grp >= 0
                grad, count = grouped_histograms(
                    bm, rows[m], grp[m], len(sub), g
                )
                parts.append(evaluate_splits(grad, count, bm, min_leaf, lam))
            return tuple(
                np.concatenate([p[i] for p in parts]) for i in range(6)
            ) + (None,)

        if parent_hists is None:
            # Root level (or post-fallback): accumulate every slot directly.
            if ne == 1 and len(cnt) == 1 and len(rows) == bm.n_rows:
                grad, count = grouped_histograms(bm, None, None, 1, g)
            else:
                lut = np.full(len(cnt), -1, dtype=np.intp)
                lut[eligible] = np.arange(ne)
                grp = lut[slot]
                m = grp >= 0
                if m.all():
                    grad, count = grouped_histograms(bm, rows, grp, ne, g)
                else:
                    grad, count = grouped_histograms(
                        bm, rows[m], grp[m], ne, g
                    )
        else:
            # Sibling subtraction: bincount only each pair's smaller child;
            # the larger eligible child is parent − smaller sibling.
            sib = eligible ^ 1
            is_small = (cnt[eligible] < cnt[sib]) | (
                (cnt[eligible] == cnt[sib]) & (eligible < sib)
            )
            direct = np.unique(np.where(is_small, eligible, sib))
            lut = np.full(len(cnt), -1, dtype=np.intp)
            lut[direct] = np.arange(len(direct))
            grp = lut[slot]
            m = grp >= 0
            d_grad, d_count = grouped_histograms(
                bm, rows[m], grp[m], len(direct), g
            )
            small_ix = lut[np.where(is_small, eligible, sib)]
            grad = d_grad[small_ix]
            count = d_count[small_ix]
            der = np.flatnonzero(~is_small)
            if len(der):
                pair = eligible[der] // 2
                pg, pc = parent_hists
                grad[der] = pg[pair] - grad[der]
                count[der] = pc[pair] - count[der]
        out = evaluate_splits(grad, count, bm, min_leaf, lam)
        return out + ((grad, count),)


class DecisionTreeRegressor(Regressor):
    """CART regression tree (variance-reduction splits, mean leaves).

    Parameters follow the scikit-learn vocabulary.  ``max_features`` may be
    ``None`` (all), an int, a float fraction, or ``"sqrt"``.  Deterministic
    for a fixed seed; splits coincide with an exact sorted search whenever
    features have at most 256 distinct values, and otherwise land on
    quantile-bin boundaries.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.tree_: Tree | None = None

    def _resolve_max_features(self, n_features: int) -> int | None:
        mf = self.max_features
        if mf is None:
            return None
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(mf * n_features))
        if isinstance(mf, int):
            if mf < 1:
                raise ValueError("int max_features must be >= 1")
            return min(mf, n_features)
        raise ValueError(f"bad max_features {mf!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = self._validate_fit(X, y)
        builder = _Builder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            lam=0.0,
            min_gain=1e-12,
            rng=default_rng(self.seed),
        )
        # MSE criterion as a second-order objective: g = −y, h = 1 gives
        # leaf value mean(y) and gain ∝ variance reduction.
        self.tree_ = builder.build(BinnedMatrix.from_matrix(X), -y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "tree_")
        return self.tree_.predict(check_2d(X, "X"))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index per row (for tests and leaf-level analyses)."""
        check_fitted(self, "tree_")
        return self.tree_.apply(check_2d(X, "X"))
