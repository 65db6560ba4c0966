"""Histogram binning: layout, accumulation, split parity with exact search.

The load-bearing guarantee is the histogram ≡ exact split contract for
low-cardinality features (every distinct value gets its own bin, so the
candidate thresholds coincide), checked against the sorted-search oracle
in ``tests/oracles`` both on hand-built cases and property-style over
random integer-valued matrices, for CART and for the regularised
second-order (boosting) objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.binning import (
    DEFAULT_MAX_BINS,
    BinnedMatrix,
    evaluate_splits,
    grouped_histograms,
    sampled_histograms,
)
from repro.ml.tree import DecisionTreeRegressor, _Builder
from tests.oracles import ExactBuilder, ExactDecisionTree


# ---------------------------------------------------------------- layout


def test_binned_matrix_ragged_layout():
    rng = np.random.default_rng(0)
    X = np.column_stack(
        [
            rng.integers(0, 3, size=200),  # 3 distinct values
            rng.integers(0, 50, size=200),  # up to 50
            np.ones(200),  # constant
        ]
    ).astype(np.float64)
    bm = BinnedMatrix.from_matrix(X)
    assert bm.n_rows == 200 and bm.n_features == 3
    assert bm.n_bins[0] == 3 and bm.n_bins[2] == 1
    assert bm.width == int(bm.n_bins.sum())
    np.testing.assert_array_equal(bm.offsets, np.concatenate([[0], np.cumsum(bm.n_bins)]))
    # Every row's global code lands inside its feature's slot range.
    for f in range(3):
        codes = bm.global_codes[:, f]
        assert codes.min() >= bm.offsets[f] and codes.max() < bm.offsets[f + 1]
    # A constant feature has no scorable boundary.
    assert not bm.col_cand[bm.offsets[2]]
    # Each feature's last slot is never a candidate.
    assert not bm.col_cand[bm.offsets[1:] - 1].any()


def test_binned_matrix_codes_order_preserving():
    """Bin codes must be monotone in the raw values (per feature)."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3000, 2))
    bm = BinnedMatrix.from_matrix(X, max_bins=16)
    for f in range(2):
        order = np.argsort(X[:, f], kind="stable")
        codes = bm.global_codes[order, f]
        assert np.all(np.diff(codes) >= 0)
        assert bm.n_bins[f] <= 16


def test_thresholds_separate_bins_in_raw_space():
    """Routing raw values through col_thr reproduces the bin partition."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(500, 1)) ** 3
    bm = BinnedMatrix.from_matrix(X, max_bins=8)
    code = bm.global_codes[:, 0]
    for s in np.flatnonzero(bm.col_cand):
        left = X[:, 0] <= bm.col_thr[s]
        np.testing.assert_array_equal(left, code <= s)


def test_take_is_row_view_with_shared_edges():
    X = np.random.default_rng(3).normal(size=(100, 4))
    bm = BinnedMatrix.from_matrix(X)
    rows = np.array([5, 5, 17, 99])
    sub = bm.take(rows)
    np.testing.assert_array_equal(sub.global_codes, bm.global_codes[rows])
    assert sub.col_thr is bm.col_thr and sub.offsets is bm.offsets


def test_max_bins_validation():
    with pytest.raises(ValueError, match="max_bins"):
        BinnedMatrix.from_matrix(np.zeros((4, 1)), max_bins=1)
    with pytest.raises(ValueError, match="max_bins"):
        BinnedMatrix.from_matrix(np.zeros((4, 1)), max_bins=257)
    with pytest.raises(ValueError, match="2-D"):
        BinnedMatrix.from_matrix(np.zeros(4))


# ---------------------------------------------------------------- histograms


def _random_problem(seed, n=400, f=5, groups=3):
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.integers(0, rng.integers(2, 40), size=n) for _ in range(f)]
    ).astype(np.float64)
    bm = BinnedMatrix.from_matrix(X)
    g = rng.normal(size=n)
    rows = rng.integers(0, n, size=n)  # bootstrap-style
    grp = rng.integers(0, groups, size=n)
    return bm, g, rows, grp, groups


def test_grouped_histograms_match_direct_sums():
    bm, g, rows, grp, k = _random_problem(0)
    grad, count = grouped_histograms(bm, rows, grp, k, g)
    for gi in range(k):
        sel = rows[grp == gi]
        for f in range(bm.n_features):
            for s in range(int(bm.offsets[f]), int(bm.offsets[f + 1])):
                m = bm.global_codes[sel, f] == s
                assert count[gi, s] == m.sum()
                np.testing.assert_allclose(grad[gi, s], g[sel][m].sum())


def test_sampled_histograms_match_grouped_on_sampled_columns():
    bm, g, rows, grp, k = _random_problem(1)
    rng = np.random.default_rng(9)
    cols = np.stack([rng.choice(bm.n_features, size=2, replace=False) for _ in range(k)])
    cols = cols.astype(np.intp)
    sg, sc = sampled_histograms(bm, rows, grp, k, g, cols)
    fg, fc = grouped_histograms(bm, rows, grp, k, g)
    for gi in range(k):
        for f in range(bm.n_features):
            sl = slice(int(bm.offsets[f]), int(bm.offsets[f + 1]))
            if f in cols[gi]:
                np.testing.assert_array_equal(sc[gi, sl], fc[gi, sl])
                np.testing.assert_allclose(sg[gi, sl], fg[gi, sl])
            else:  # unsampled features' slots stay zero
                assert not sc[gi, sl].any()
                assert not sg[gi, sl].any()


def test_sampled_histograms_unit_hessian():
    """Squared loss has unit hessians: the int64 count histogram is the
    hessian histogram, and no separate one is accumulated."""
    bm, g, rows, grp, k = _random_problem(2)
    cols = np.tile(np.arange(2, dtype=np.intp), (k, 1))
    out = sampled_histograms(bm, rows, grp, k, g, cols)
    assert len(out) == 2
    _grad, count = out
    assert count.dtype == np.int64
    assert count.sum() == len(rows) * cols.shape[1]


# ---------------------------------------------------------------- split scan


def test_masked_scan_agrees_with_full_scan():
    """The per-feature masked path must pick the same splits as the dense
    full-width scan (bit-exact for integer-valued gradients)."""
    bm, _g, rows, grp, k = _random_problem(3)
    rng = np.random.default_rng(4)
    g = rng.integers(-5, 6, size=bm.n_rows).astype(np.float64)
    grad, count = grouped_histograms(bm, rows, grp, k, g)
    mask = np.ones((k, bm.n_features), dtype=bool)
    full = evaluate_splits(grad, count, bm, 1, 0.0)
    # totals force the masked path regardless of the size heuristic
    g_tot = np.bincount(grp, weights=g[rows], minlength=k)
    c_tot = np.bincount(grp, minlength=k)
    masked = evaluate_splits(
        grad, count, bm, 1, 0.0, feat_mask=mask, totals=(g_tot, c_tot)
    )
    for a, b in zip(full, masked):
        np.testing.assert_array_equal(a, b)


def test_evaluate_splits_respects_min_leaf():
    X = np.arange(10, dtype=np.float64).reshape(-1, 1)
    y = (X[:, 0] >= 9).astype(np.float64)  # only a 9-vs-1 split has gain
    bm = BinnedMatrix.from_matrix(X)
    grad, count = grouped_histograms(bm, None, None, 1, -y)
    gain, *_ = evaluate_splits(grad, count, bm, 2, 0.0)
    _, feat, thr, *_ = evaluate_splits(grad, count, bm, 1, 0.0)
    # min_leaf=2 forbids the best cut; min_leaf=1 finds it at 8|9.
    assert 8.0 <= thr[0] < 9.0 and feat[0] == 0
    g1, *_ = evaluate_splits(grad, count, bm, 1, 0.0)
    assert g1[0] > gain[0]


def test_evaluate_splits_all_constant_features():
    bm = BinnedMatrix.from_matrix(np.ones((20, 2)))
    grad, count = grouped_histograms(bm, None, None, 1, np.arange(20.0))
    gain, *_ = evaluate_splits(grad, count, bm, 1, 0.0)
    assert gain[0] == -np.inf


# ---------------------------------------------------------------- parity


def _fit_both(X, y, **kw):
    hist = DecisionTreeRegressor(**kw).fit(X, y)
    exact = ExactDecisionTree(**kw).fit(X, y)
    return hist, exact


def _assert_same_tree(th, te, X):
    """Same grown tree: node numbering differs (level-order vs recursive
    builder) and thresholds may sit at different points of the same value
    gap (exact uses the node-local midpoint, hist the global bin edge), so
    equality is checked on what the tree *is*: the split-feature multiset,
    the induced training-data partition, and the fitted function."""
    assert th.n_leaves == te.n_leaves
    assert sorted(th.feature[th.feature >= 0]) == sorted(te.feature[te.feature >= 0])
    lh, le = th.apply(X), te.apply(X)
    # The leaf partitions coincide: each hist leaf maps to one exact leaf
    # and the pairing is one-to-one.
    pairs = {(a, b) for a, b in zip(lh.tolist(), le.tolist())}
    assert len(pairs) == len(set(lh)) == len(set(le))
    np.testing.assert_array_equal(th.predict(X), te.predict(X))


def test_hist_equals_exact_simple():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 30, size=(300, 4)).astype(np.float64)
    y = X[:, 0] + 3.0 * (X[:, 1] > 15) + rng.integers(0, 3, size=300)
    hist, exact = _fit_both(X, y, max_depth=6)
    _assert_same_tree(hist.tree_, exact.tree_, X)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_hist_equals_exact_property(data):
    """With ≤255 distinct values per feature, every distinct value gets its
    own bin, so the product builder and the exact oracle consider identical
    candidate thresholds and must grow identical trees (integer gradients
    keep sums bit-exact).  λ = 0 is CART; λ > 0 is the regularised
    second-order objective the boosting ensemble grows its trees with."""
    n = data.draw(st.integers(20, 120), label="n_rows")
    f = data.draw(st.integers(1, 4), label="n_features")
    card = data.draw(st.integers(2, 25), label="cardinality")
    depth = data.draw(st.integers(1, 5), label="max_depth")
    min_leaf = data.draw(st.integers(1, 4), label="min_leaf")
    lam = data.draw(st.sampled_from([0.0, 1.0, 2.5]), label="lam")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.integers(0, card, size=(n, f)).astype(np.float64)
    g = rng.integers(-8, 9, size=n).astype(np.float64)
    kw = dict(
        max_depth=depth,
        min_samples_split=2,
        min_samples_leaf=min_leaf,
        max_features=None,
        lam=lam,
        min_gain=1e-12,
    )
    hist = _Builder(rng=np.random.default_rng(0), **kw).build(
        BinnedMatrix.from_matrix(X), g
    )
    exact = ExactBuilder(rng=np.random.default_rng(0), **kw).build(
        X, g, np.ones_like(g)
    )
    _assert_same_tree(hist, exact, X)


def test_hist_close_to_exact_beyond_bin_limit():
    """Past max_bins distinct values the trees may differ, but the fitted
    function should stay close on a smooth target."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4000, 3))
    y = X[:, 0] ** 2 + np.sin(3 * X[:, 1]) + 0.1 * rng.normal(size=4000)
    hist, exact = _fit_both(X, y, max_depth=6, min_samples_leaf=5)
    mse_h = float(np.mean((hist.predict(X) - y) ** 2))
    mse_e = float(np.mean((exact.predict(X) - y) ** 2))
    # Exact always wins on *training* MSE (it may cut anywhere, hist only
    # at 255 quantile edges); the gap just has to stay small.
    assert mse_h <= mse_e * 1.3


def test_default_max_bins_is_uint8_ceiling():
    assert DEFAULT_MAX_BINS == 256
