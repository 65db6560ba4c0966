"""Feature binning for histogram-based tree growing.

LightGBM-style split finding: each feature column is quantile-binned to
``uint8`` codes once per ensemble fit, per-node (gradient, count)
statistics are accumulated into histograms with one ``np.bincount`` over a
flattened (node, feature, bin) index, and every candidate threshold of
every feature of every node is scored in a single cumulative-sum pass.
Sibling histograms are obtained by subtraction (child = parent − other
child), halving the accumulation work below the root.  Every tree here is
grown on squared loss, whose hessian is 1 per row, so the count histogram
doubles as the hessian histogram.

Histograms use a *ragged* per-feature layout: feature ``f`` owns the
``n_bins[f]`` consecutive slots starting at ``offsets[f]``, so a node's
histogram is one row of width ``W = Σ n_bins`` rather than a dense
``F × 256`` block.  Low-cardinality features (queue/QOS codes, node
counts, …) then cost exactly their handful of bins — on the paper's
feature matrices this shrinks every histogram pass several-fold.

Thresholds are stored in *raw* feature space — midpoints between the bin
upper bound and the next observed distinct value, guarded so routing on
``<=`` never lands on the right-hand value — so fitted trees route
unbinned prediction inputs directly.  When a feature has at most
``max_bins`` distinct values, each value gets its own bin and the
candidate set (and therefore the chosen split) coincides with an exact
sorted search over every distinct value; ``tests/oracles/exact_tree.py``
holds that search and the parity tests pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_MAX_BINS",
    "BinnedMatrix",
    "evaluate_splits",
    "grouped_histograms",
    "sampled_histograms",
]

#: uint8 codes — 256 bins is LightGBM's default and the dtype ceiling.
DEFAULT_MAX_BINS = 256

def _bin_column(
    xf: np.ndarray, max_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bin one column: (uint8 codes, boundary thresholds).

    Bin ``b`` holds values ``upper[b-1] < v <= upper[b]`` where ``upper``
    are actual data values (all distinct values when few enough, otherwise
    equal-frequency quantiles).  ``thresholds[b]`` separates bins ``<= b``
    from ``> b`` in raw space; there are ``n_bins - 1`` of them.
    """
    uniq = np.unique(xf)
    if len(uniq) <= max_bins:
        upper = uniq
    else:
        qs = np.quantile(xf, np.arange(1, max_bins) / max_bins, method="lower")
        upper = np.unique(np.append(qs, uniq[-1]))
    codes = np.searchsorted(upper, xf, side="left").astype(np.uint8)
    if len(upper) == 1:
        return codes, np.empty(0)
    # Midpoint between each bin's upper bound and the next observed value,
    # guarded so routing on <= never lands on the right-hand value.
    nxt = uniq[np.searchsorted(uniq, upper[:-1], side="right")]
    thr = 0.5 * (upper[:-1] + nxt)
    thr = np.where(thr >= nxt, upper[:-1], thr)
    return codes, thr


@dataclass
class BinnedMatrix:
    """A feature matrix quantised to per-feature uint8 bin codes.

    Built once per ensemble ``fit`` and shared by every tree (bootstrap
    resamples and boosting rounds take row subsets of the codes via
    :meth:`take`; the bin edges never move).  Picklable, so forest fits
    fan out across processes unchanged.

    ``global_codes`` pre-adds each feature's histogram offset to its codes
    so per-level accumulation is a single add + ``bincount``; the ``col_*``
    arrays describe each histogram slot (owning feature, within-feature
    bin, raw threshold, and whether the slot is a scorable boundary — a
    feature's last bin is not) in (feature, bin) order, matching the exact
    search's lowest-feature-then-lowest-threshold tie-breaking under a
    row-major argmax.
    """

    global_codes: np.ndarray  # (n_rows, n_features) int32, bin + offsets[f]
    offsets: np.ndarray  # (n_features + 1,) intp histogram slot ranges
    n_bins: np.ndarray  # (n_features,) int64 occupied bins per feature
    col_feat: np.ndarray  # (W,) intp owning feature of each slot
    col_bin: np.ndarray  # (W,) int64 within-feature bin of each slot
    col_thr: np.ndarray  # (W,) float64 raw threshold (0 where not scorable)
    col_cand: np.ndarray  # (W,) bool — slot is a scorable bin boundary

    @classmethod
    def from_matrix(
        cls, X: np.ndarray, max_bins: int = DEFAULT_MAX_BINS
    ) -> "BinnedMatrix":
        if not 2 <= max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {max_bins}")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, f = X.shape
        codes = np.empty((n, f), dtype=np.uint8)
        n_bins = np.empty(f, dtype=np.int64)
        thrs: list[np.ndarray] = []
        for j in range(f):
            codes[:, j], thr = _bin_column(X[:, j], max_bins)
            thrs.append(thr)
            n_bins[j] = len(thr) + 1
        offsets = np.zeros(f + 1, dtype=np.intp)
        np.cumsum(n_bins, out=offsets[1:])
        col_feat = np.repeat(np.arange(f, dtype=np.intp), n_bins)
        col_bin = np.concatenate([np.arange(nb, dtype=np.int64) for nb in n_bins])
        col_cand = col_bin < n_bins[col_feat] - 1
        col_thr = np.zeros(int(offsets[-1]))
        col_thr[col_cand] = np.concatenate(thrs) if thrs else np.empty(0)
        return cls(
            global_codes=codes.astype(np.int32)
            + offsets[:-1][None, :].astype(np.int32),
            offsets=offsets,
            n_bins=n_bins,
            col_feat=col_feat,
            col_bin=col_bin,
            col_thr=col_thr,
            col_cand=col_cand,
        )

    @property
    def n_rows(self) -> int:
        return self.global_codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.global_codes.shape[1]

    @property
    def width(self) -> int:
        """Total histogram slots per node (Σ per-feature bin counts)."""
        return int(self.offsets[-1])

    def take(self, rows: np.ndarray) -> "BinnedMatrix":
        """Row subset sharing the bin edges (bootstrap / subsample views)."""
        return BinnedMatrix(
            global_codes=self.global_codes[rows],
            offsets=self.offsets,
            n_bins=self.n_bins,
            col_feat=self.col_feat,
            col_bin=self.col_bin,
            col_thr=self.col_thr,
            col_cand=self.col_cand,
        )


def grouped_histograms(
    bm: BinnedMatrix,
    rows: np.ndarray | None,
    groups: np.ndarray | None,
    n_groups: int,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(grad, count) histograms of shape ``(n_groups, W)``.

    ``rows`` index into ``bm``/``g`` (``None`` means every row, with no
    gather); ``groups`` assigns each row to a histogram slot (``None``
    only with ``n_groups=1``).  One flattened ``np.bincount`` over a
    combined (group, feature-bin) index accumulates every group's every
    feature at once — this is what makes level-synchronous tree growth
    fast: the cost per tree level is ``O(live_rows × F)`` regardless of how
    many nodes the level holds.  The count histogram is also the hessian
    histogram (squared loss has unit hessians).
    """
    f, w = bm.n_features, bm.width
    gc = bm.global_codes if rows is None else bm.global_codes[rows]
    gw = g if rows is None else g[rows]
    if groups is None:
        flat = gc.ravel()
    else:
        flat = (gc + (groups * w)[:, None]).ravel()
    size = n_groups * w
    count = np.bincount(flat, minlength=size).reshape(n_groups, w)
    grad = np.bincount(
        flat, weights=np.repeat(gw, f), minlength=size
    ).reshape(n_groups, w)
    return grad, count


def sampled_histograms(
    bm: BinnedMatrix,
    rows: np.ndarray,
    groups: np.ndarray,
    n_groups: int,
    g: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Histograms restricted to each group's sampled feature columns.

    ``cols`` is ``(n_groups, max_features)`` — the feature subset each
    group (node) drew.  Only those columns' codes are gathered and
    bincounted, so with ``max_features ≪ F`` the accumulation cost drops
    to the sampled fraction; unsampled features' slots stay zero (the
    split scan never reads them).  This replaces sibling subtraction when
    feature subsampling is on: a child's sampled features differ from its
    parent's, so parent histograms cannot be reused anyway.
    """
    w = bm.width
    mf = cols.shape[1]
    size = n_groups * w
    base = groups * w
    gw = g[rows]
    count = np.zeros(size, dtype=np.int64)
    grad = np.zeros(size)
    # One pass per sampled-column position keeps every intermediate 1-D
    # (and ``gw``/``base`` shared across positions) — much cheaper than
    # materialising the (live, mf) gathered-code block.
    for j in range(mf):
        cj = np.take(cols[:, j], groups)
        # int64 sum up front so bincount needn't convert its input.
        flat = base + bm.global_codes[rows, cj]
        count += np.bincount(flat, minlength=size)
        grad += np.bincount(flat, weights=gw, minlength=size)
    return grad.reshape(n_groups, w), count.reshape(n_groups, w)


#: Below this many histogram entries per level the dense full-width scan
#: beats the per-feature masked scan (fewer numpy calls); above it, skipping
#: unsampled features' slots wins.
_MASKED_SCAN_MIN_ENTRIES = 1 << 15


def evaluate_splits(
    grad: np.ndarray,
    count: np.ndarray,
    bm: BinnedMatrix,
    min_leaf: int,
    lam: float,
    feat_mask: np.ndarray | None = None,
    totals: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, ...]:
    """Best split per histogram group.

    Returns ``(gain, feature, threshold, bin, left_grad, left_count)``
    arrays, one entry per group; the ``left_*`` sums are the chosen
    split's left-child statistics, which the builder turns into the
    children's node values without re-scanning any rows.  Counts serve as
    hessians, so the gain is the second-order score with unit hessians.

    One cumulative sum per statistic scores every histogram slot of every
    group at once: within-feature prefix sums are the full cumsum minus a
    per-feature base (the cumulative total before the feature), and each
    feature's last slot — not a bin boundary — is masked invalid, so no
    per-candidate gathers are needed.  The row-major argmax over slots
    (ordered by feature, then bin) breaks ties the same way the exact
    search does — lowest feature index first, then lowest threshold.  Gain
    is ``-inf`` where no valid split exists.  ``feat_mask`` (groups, F)
    restricts candidates to each group's sampled feature subset.
    ``totals`` supplies per-group (grad, count) node sums; it is
    **required** when the histograms came from :func:`sampled_histograms`
    (unsampled slots are zero, so totals cannot be recovered from the
    histograms themselves).
    """
    k, w = grad.shape
    if not bm.col_cand.any():
        zero = np.zeros(k, dtype=np.intp)
        nan = np.full(k, np.nan)
        return (
            np.full(k, -np.inf), zero, np.zeros(k), zero.astype(np.int64),
            nan, nan,
        )
    if feat_mask is not None and (
        totals is not None or k * w > _MASKED_SCAN_MIN_ENTRIES
    ):
        return _masked_splits(grad, count, bm, min_leaf, lam, feat_mask, totals)
    ends = bm.offsets[1:] - 1  # last slot of each feature
    col_feat = bm.col_feat

    def prefix(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(within-feature prefix sums, per-group totals) for a statistic."""
        cum = np.cumsum(a, axis=1)
        base = np.zeros((k, len(ends)), dtype=cum.dtype)
        base[:, 1:] = cum[:, ends[:-1]]
        cum -= base[:, col_feat]
        # Feature 0's base is zero, so its last slot is the group total.
        return cum, cum[:, ends[0] : ends[0] + 1].copy()

    gl, g_tot = prefix(grad)
    cl, c_tot = prefix(count)
    cr = c_tot - cl
    valid = (cl >= min_leaf) & (cr >= min_leaf)
    valid &= bm.col_cand[None, :]
    if feat_mask is not None:
        valid &= feat_mask[:, col_feat]
    # Left + right second-order scores, computed in place; the per-node
    # constant −G²/(H+λ) shifts every candidate equally, so it is applied
    # after the argmax.  Association matches the exact search's
    # (left + right) − parent evaluation order bit-for-bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = gl * gl
        gain /= cl + lam
        t = g_tot - gl
        t *= t
        t /= cr + lam
        gain += t
    gain[~valid] = -np.inf
    best = np.argmax(gain, axis=1)
    ar = np.arange(k)
    const = np.divide(
        g_tot * g_tot, c_tot + lam,
        out=np.zeros_like(g_tot), where=(c_tot > 0),
    ).ravel()
    return (
        gain[ar, best] - const,
        bm.col_feat[best],
        bm.col_thr[best],
        bm.col_bin[best],
        gl[ar, best],
        cl[ar, best],
    )


def _masked_splits(
    grad: np.ndarray,
    count: np.ndarray,
    bm: BinnedMatrix,
    min_leaf: int,
    lam: float,
    feat_mask: np.ndarray,
    totals: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, ...]:
    """Feature-at-a-time split scan for feature-subsampled levels.

    When each node samples only ``max_features`` of ``F`` features, the
    full-width scan wastes most of its arithmetic on masked-out slots.
    This path visits one feature at a time, gathering only the rows
    (nodes) that sampled it — arithmetic shrinks to the sampled fraction
    and the per-feature blocks stay cache-resident.  A running strict
    ``>`` maximum over ascending feature index keeps the same
    lowest-feature-then-lowest-threshold tie-breaking as the full scan;
    per-node constants (−G²/(H+λ)) cancel across features, so candidates
    compare by partial gain and the constant is subtracted once at the
    end.
    """
    k = grad.shape[0]
    off = bm.offsets
    best_gain = np.full(k, -np.inf)
    best_f = np.zeros(k, dtype=np.intp)
    best_thr = np.zeros(k)
    best_b = np.zeros(k, dtype=np.int64)
    lg = np.full(k, np.nan)
    lc = np.full(k, np.nan)
    if totals is not None:
        g_tot, c_tot = totals
    else:
        # Every row lands in exactly one bin of every feature, so feature
        # 0's slots alone sum to the per-node totals.
        g_tot = grad[:, off[0] : off[1]].sum(axis=1)
        c_tot = count[:, off[0] : off[1]].sum(axis=1)
    for f in range(bm.n_features):
        nb = int(bm.n_bins[f])
        if nb < 2:
            continue
        sel = np.flatnonzero(feat_mask[:, f])
        if not len(sel):
            continue
        a, b = int(off[f]), int(off[f + 1])
        # Prefix sums over this feature's bins; the last column is the
        # node total, not a boundary, and is dropped.
        gl_f = np.cumsum(grad[sel, a:b], axis=1)[:, :-1]
        cl_f = np.cumsum(count[sel, a:b], axis=1)[:, :-1]
        cr_f = c_tot[sel, None] - cl_f
        valid = (cl_f >= min_leaf) & (cr_f >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl_f * gl_f
            gain /= cl_f if lam == 0.0 else cl_f + lam
            t = g_tot[sel, None] - gl_f
            t *= t
            t /= cr_f if lam == 0.0 else cr_f + lam
            gain += t
        gain[~valid] = -np.inf
        bix = np.argmax(gain, axis=1)
        ars = np.arange(len(sel))
        gbest = gain[ars, bix]
        upd = gbest > best_gain[sel]
        if not upd.any():
            continue
        iu = np.flatnonzero(upd)
        us = sel[iu]
        ub = bix[iu]
        best_gain[us] = gbest[iu]
        best_f[us] = f
        best_b[us] = ub
        best_thr[us] = bm.col_thr[a + ub]
        lg[us] = gl_f[iu, ub]
        lc[us] = cl_f[iu, ub]
    const = np.divide(
        g_tot * g_tot, c_tot + lam,
        out=np.zeros_like(g_tot), where=(c_tot > 0),
    )
    return best_gain - const, best_f, best_thr, best_b, lg, lc
