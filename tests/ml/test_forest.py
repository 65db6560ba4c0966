"""Random forest behaviour."""

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, RandomForestRegressor


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


def test_predict_std_uncertainty():
    X, y = _data()
    f = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
    std_in = f.predict_std(X).mean()
    # Far outside the training distribution trees disagree more... at least
    # std is finite and non-negative everywhere.
    assert np.all(f.predict_std(X) >= 0)
    assert np.isfinite(std_in)


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
