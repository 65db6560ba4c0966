"""CART tree behaviour."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeRegressor
from tests.oracles.exact_tree import _best_split_feature


def test_perfect_split_found():
    # y depends on a single threshold in x0.
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float) * 10.0
    t = DecisionTreeRegressor(max_depth=1).fit(X, y)
    pred = t.predict(X)
    np.testing.assert_allclose(pred, y)
    assert t.tree_.n_leaves == 2


def test_stump_threshold_midpoint():
    gain, thr = _best_split_feature(
        np.array([0.0, 1.0, 2.0, 3.0]),
        -np.array([0.0, 0.0, 10.0, 10.0]),
        np.ones(4),
        min_leaf=1,
        lam=0.0,
    )
    assert gain > 0
    assert 1.0 <= thr < 2.0


def test_no_valid_split_constant_feature():
    gain, _ = _best_split_feature(
        np.ones(10), -np.arange(10.0), np.ones(10), min_leaf=1, lam=0.0
    )
    assert gain == -np.inf


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    t = DecisionTreeRegressor(max_depth=20, min_samples_leaf=17).fit(X, y)
    tree = t.tree_
    leaf_sizes = tree.n_samples[tree.feature == -1]
    assert leaf_sizes.min() >= 17


def test_max_depth_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 3))
    y = rng.normal(size=500)
    t = DecisionTreeRegressor(max_depth=3).fit(X, y)
    assert t.tree_.decision_depth() <= 3


def test_leaf_value_is_mean():
    X = np.ones((10, 1))  # unsplittable
    y = np.arange(10.0)
    t = DecisionTreeRegressor().fit(X, y)
    np.testing.assert_allclose(t.predict(X), y.mean())
    assert t.tree_.n_nodes == 1


def test_apply_assigns_consistent_leaves():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    y = X[:, 0] ** 2
    t = DecisionTreeRegressor(max_depth=4).fit(X, y)
    leaves = t.apply(X)
    preds = t.predict(X)
    for leaf in np.unique(leaves):
        assert len(np.unique(preds[leaves == leaf])) == 1


def test_fits_training_data_deeply():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 5))
    y = rng.normal(size=200)
    t = DecisionTreeRegressor(max_depth=30, min_samples_leaf=1, min_samples_split=2)
    # distinct rows -> a deep tree memorises the data
    assert t.fit(X, y).score(X, y) > 0.99


def test_duplicate_feature_values_never_split_between():
    # Threshold must not separate identical feature values.
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0.0, 10.0, 0.0, 10.0])
    t = DecisionTreeRegressor(max_depth=5).fit(X, y)
    # Identical inputs get identical predictions.
    p = t.predict(X)
    assert p[0] == p[1] and p[2] == p[3]


def test_max_features_resolution():
    t = DecisionTreeRegressor(max_features="sqrt")
    assert t._resolve_max_features(9) == 3
    assert DecisionTreeRegressor(max_features=0.5)._resolve_max_features(10) == 5
    assert DecisionTreeRegressor(max_features=100)._resolve_max_features(10) == 10
    assert DecisionTreeRegressor(max_features=None)._resolve_max_features(10) is None
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_features=0.0)._resolve_max_features(10)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_features=-3)._resolve_max_features(10)


def test_param_validation():
    with pytest.raises(ValueError):
        DecisionTreeRegressor(max_depth=0)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_split=1)
    with pytest.raises(ValueError):
        DecisionTreeRegressor(min_samples_leaf=0)


def test_unfitted_predict_raises():
    with pytest.raises(RuntimeError):
        DecisionTreeRegressor().predict(np.zeros((2, 2)))
