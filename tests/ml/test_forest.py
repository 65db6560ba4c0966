"""Random forest behaviour."""

import pickle
from unittest import mock

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.ml import tree as tree_module
from repro.ml.tree import Tree, TreeStack
from tests.oracles.tree_walk import walk_forest, walk_leaf


def _data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=n)
    return X, y


def test_beats_single_deep_tree_out_of_sample():
    X, y = _data()
    Xte, yte = _data(seed=1)
    tree = DecisionTreeRegressor(max_depth=30, min_samples_leaf=1).fit(X, y)
    # Bagging-only comparison (all features per split) isolates the
    # variance-reduction claim from feature-subsampling bias.
    forest = RandomForestRegressor(n_estimators=30, seed=0, max_features=None).fit(X, y)
    assert forest.score(Xte, yte) > tree.score(Xte, yte)


def test_prediction_is_tree_average():
    X, y = _data(n=200)
    f = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
    manual = np.mean([t.predict(X) for t in f.trees_], axis=0)
    np.testing.assert_allclose(f.predict(X), manual)


def test_seeded_reproducibility():
    X, y = _data(n=300)
    a = RandomForestRegressor(n_estimators=6, seed=5).fit(X, y).predict(X)
    b = RandomForestRegressor(n_estimators=6, seed=5).fit(X, y).predict(X)
    np.testing.assert_array_equal(a, b)
    c = RandomForestRegressor(n_estimators=6, seed=6).fit(X, y).predict(X)
    assert not np.allclose(a, c)


def test_feature_importances_find_signal():
    X, y = _data(n=1500)
    f = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
    imp = f.feature_importances(6)
    np.testing.assert_allclose(imp.sum(), 1.0)
    # x0 and x1 carry all the signal.
    assert imp[0] + imp[1] > 0.5


def test_no_bootstrap_mode():
    X, y = _data(n=200)
    f = RandomForestRegressor(n_estimators=3, bootstrap=False, max_features=None, seed=0)
    f.fit(X, y)
    # Without bootstrap or feature sampling all trees are identical.
    p0 = f.trees_[0].predict(X)
    for t in f.trees_[1:]:
        np.testing.assert_allclose(t.predict(X), p0)


def test_validation():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0)
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# threshold cells and the stacked descent, against the scalar walk
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_predict_is_bitwise_the_per_tree_sum(kind):
    rng = np.random.default_rng(7)
    if kind == "discrete":
        X = rng.integers(0, 3, size=(900, 4)).astype(np.float64)
    else:
        X = rng.normal(size=(900, 4))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=len(X))
    f = RandomForestRegressor(n_estimators=12, seed=1).fit(X, y)
    Xq = np.vstack([X, rng.permutation(X), rng.normal(size=(200, 4))])
    np.testing.assert_array_equal(f.predict(Xq), walk_forest(f.trees_, Xq))
    if kind == "discrete":
        assert len(f._cells(X)[0]) <= 3**4


def _leaf_tree(value):
    """A root-only tree."""
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([value]),
        n_samples=np.array([1]),
    )


def test_trees_of_different_depths_and_a_root_only_leaf():
    """Shallow trees' lanes sit on their leaves while deep ones descend."""
    X, y = _data(n=400)
    trees = [_leaf_tree(0.75)]
    for depth in (1, 3, 9):
        trees += RandomForestRegressor(n_estimators=2, max_depth=depth, seed=depth).fit(X, y).trees_
    trees.append(_leaf_tree(-2.5))
    f = RandomForestRegressor(n_estimators=len(trees))
    f.n_features_in_ = X.shape[1]
    f.trees_ = trees
    Xq, _ = _data(n=150, seed=4)
    np.testing.assert_array_equal(f.predict(Xq), walk_forest(trees, Xq))
    single = RandomForestRegressor(n_estimators=1, seed=0).fit(X, y)
    np.testing.assert_array_equal(single.predict(Xq), walk_forest(single.trees_, Xq))
    only_leaf = RandomForestRegressor(n_estimators=1)
    only_leaf.trees_ = [_leaf_tree(-0.0)]
    # The sum starts from +0.0, as a plain running sum does.
    assert np.signbit(walk_forest(only_leaf.trees_, Xq[:2])).tolist() == [False] * 2
    np.testing.assert_array_equal(
        np.signbit(only_leaf.predict(Xq[:2])), [False, False]
    )


def test_tree_apply_is_the_scalar_walk():
    X, y = _data(n=300)
    tree = DecisionTreeRegressor(max_depth=8, seed=0).fit(X, y).tree_
    Xq, _ = _data(n=100, seed=5)
    Xq[::7, 0] = np.nan
    np.testing.assert_array_equal(
        tree.apply(Xq), [walk_leaf(tree, x) for x in Xq]
    )
    assert tree.decision_depth() == 8


def test_values_on_thresholds_and_non_finite_rows():
    """Rows one ulp either side of a threshold, and on it, share every
    other value, so only a correct rank keeps them in separate cells."""
    X, y = _data(n=400)
    f = RandomForestRegressor(n_estimators=8, seed=2).fit(X, y)
    rng = np.random.default_rng(0)
    rows = []
    for tree in f.trees_:
        for node in np.flatnonzero(tree.feature >= 0):
            thr = tree.threshold[node]
            base = rng.normal(size=X.shape[1])
            for v in (thr, np.nextafter(thr, np.inf), np.nextafter(thr, -np.inf)):
                row = base.copy()
                row[tree.feature[node]] = v
                rows.append(row)
    special = rng.choice([np.inf, -np.inf, np.nan, 0.0], size=(64, X.shape[1]))
    Xq = np.vstack([np.array(rows), special])
    np.testing.assert_array_equal(f.predict(Xq), walk_forest(f.trees_, Xq))


def test_zero_rows():
    """The estimators reject an empty ``X``; the descent under them
    returns empty arrays."""
    X, y = _data(n=200)
    f = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
    empty = np.empty((0, X.shape[1]))
    with pytest.raises(ValueError, match="zero samples"):
        f.predict(empty)
    stack = TreeStack(f.trees_)
    assert stack.apply(empty).shape == (3, 0)
    assert stack.accumulate(empty, base=0.0).shape == (0,)
    assert stack.accumulate(empty, base=0.0, staged=True).shape == (3, 0)
    assert f.trees_[0].apply(empty).shape == (0,)


@pytest.mark.parametrize("budget", [1, 5, 50])
def test_blocked_descent(budget):
    """A lane budget below ``n_trees`` descends one row per block; 50
    lanes leave a short last block."""
    X, y = _data(n=300)
    f = RandomForestRegressor(n_estimators=6, seed=3).fit(X, y)
    Xq, _ = _data(n=97, seed=6)
    Xq[::5, 1] = np.nan
    direct = f.predict(Xq)
    f._inference = None
    with mock.patch.object(tree_module, "_LANE_BUDGET", budget):
        blocked = f.predict(Xq)
    np.testing.assert_array_equal(blocked, direct)
    np.testing.assert_array_equal(blocked, walk_forest(f.trees_, Xq))


def test_single_rows_keep_the_tree_order():
    """One row is one contiguous column of leaf values, which numpy's
    unrolled reduction would add out of tree order."""
    X, y = _data(n=300)
    f = RandomForestRegressor(n_estimators=30, seed=4).fit(X, y)
    Xq, _ = _data(n=40, seed=7)
    expected = walk_forest(f.trees_, Xq)
    got = np.concatenate([f.predict(Xq[i : i + 1]) for i in range(len(Xq))])
    np.testing.assert_array_equal(got, expected)


def test_nan_goes_right_in_tree_descent():
    X = np.arange(10.0).reshape(-1, 1)
    tree = DecisionTreeRegressor(max_depth=1).fit(X, (X[:, 0] > 4).astype(float)).tree_
    assert tree.feature[0] == 0
    leaves = tree.apply(np.array([[np.nan], [-np.inf], [np.inf]]))
    np.testing.assert_array_equal(
        leaves, [tree.right[0], tree.left[0], tree.right[0]]
    )


def test_cell_keys_survive_int64_overflow():
    """40 columns with 7 thresholds each: the radix product 8**40 passes
    2**63, so the key must be rank-compressed on the way.  Without it the
    first columns' ranks would be shifted out of the int64 key."""
    n_features, cuts = 40, np.arange(1.0, 8.0)
    f = RandomForestRegressor(n_estimators=1)
    f.n_features_in_ = n_features
    f.trees_ = [
        Tree(
            feature=np.array([j, -1, -1], dtype=np.int32),
            threshold=np.array([t, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -(j + t), j * t + 0.5]),
            n_samples=np.array([2, 1, 1]),
        )
        for j in range(n_features)
        for t in cuts
    ]
    rng = np.random.default_rng(3)
    base = rng.integers(0, 9, size=(50, n_features)).astype(np.float64)
    # Each base row again with only its first column changed.
    moved = base.copy()
    moved[:, 0] = (moved[:, 0] + 4) % 9
    Xq = np.vstack([base, moved, base])
    first, cell = f._cells(Xq)
    assert len(first) == len(np.unique(Xq, axis=0))
    np.testing.assert_array_equal(f.predict(Xq), walk_forest(f.trees_, Xq))


def test_thresholds_are_never_pickled():
    X, y = _data(n=300)
    f = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
    before = f.predict(X)
    assert "_inference" in f.__dict__
    loaded = pickle.loads(pickle.dumps(f))
    assert "_inference" not in loaded.__dict__
    np.testing.assert_array_equal(loaded.predict(X), before)
    # A model pickled before the fitted column count was recorded.
    del loaded.__dict__["n_features_in_"]
    np.testing.assert_array_equal(loaded.predict(X), before)


def test_refit_rederives_the_thresholds():
    X, y = _data(n=300)
    f = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
    f.predict(X)
    f.fit(X[:, ::-1], -y)
    np.testing.assert_array_equal(f.predict(X), walk_forest(f.trees_, X))
