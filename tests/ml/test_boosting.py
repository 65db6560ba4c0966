"""Gradient boosting behaviour."""

from unittest import mock

import numpy as np
import pytest

from repro.ml import GradientBoostingRegressor
from repro.ml import tree as tree_module
from tests.oracles.tree_walk import walk_boosting


def _data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = X[:, 0] ** 2 + np.where(X[:, 1] > 0, 3.0, -1.0) + 0.1 * rng.normal(size=n)
    return X, y


def test_training_error_decreases_with_rounds():
    X, y = _data()
    g = GradientBoostingRegressor(n_estimators=60, learning_rate=0.2, seed=0).fit(X, y)
    stages = g.staged_predict(X)
    errs = ((stages - y) ** 2).mean(axis=1)
    assert errs[-1] < errs[0] * 0.3
    assert errs[10] > errs[50]


@pytest.mark.parametrize("budget", [None, 7])
def test_predict_and_stages_are_the_scalar_walk(budget):
    X, y = _data(n=300)
    g = GradientBoostingRegressor(
        n_estimators=25, learning_rate=0.3, max_depth=4, subsample=0.8, seed=0
    ).fit(X, y)
    Xq, _ = _data(n=80, seed=3)
    Xq[::9, 2] = np.nan
    Xq[1, 0], Xq[2, 1] = np.inf, -np.inf
    expected = walk_boosting(g.trees_, g.learning_rate, g.base_score_, Xq)
    budget = tree_module._LANE_BUDGET if budget is None else budget
    with mock.patch.object(tree_module, "_LANE_BUDGET", budget):
        np.testing.assert_array_equal(g.staged_predict(Xq), expected)
        np.testing.assert_array_equal(g.predict(Xq), expected[-1])
        rows = [g.predict(Xq[i : i + 1]) for i in range(len(Xq))]
    np.testing.assert_array_equal(np.concatenate(rows), expected[-1])


def test_base_score_is_mean():
    X, y = _data(n=50)
    g = GradientBoostingRegressor(n_estimators=1, seed=0).fit(X, y)
    np.testing.assert_allclose(g.base_score_, y.mean())


def test_shrinkage_applied():
    X, y = _data(n=100)
    g = GradientBoostingRegressor(n_estimators=1, learning_rate=0.1, max_depth=2, seed=0)
    g.fit(X, y)
    # After one round, pred = mean + 0.1 * tree(X).
    manual = g.base_score_ + 0.1 * g.trees_[0].predict(X)
    np.testing.assert_allclose(g.predict(X), manual)


def test_regularisation_shrinks_leaf_values():
    X, y = _data(n=200)
    plain = GradientBoostingRegressor(n_estimators=1, reg_lambda=0.0, seed=0).fit(X, y)
    reg = GradientBoostingRegressor(n_estimators=1, reg_lambda=100.0, seed=0).fit(X, y)
    assert np.abs(reg.trees_[0].value).max() < np.abs(plain.trees_[0].value).max()


def test_subsample_and_colsample_run():
    X, y = _data(n=300)
    g = GradientBoostingRegressor(
        n_estimators=20, subsample=0.5, colsample=0.5, seed=0
    ).fit(X, y)
    assert g.score(X, y) > 0.5


def test_out_of_sample_accuracy():
    X, y = _data()
    Xte, yte = _data(seed=1)
    g = GradientBoostingRegressor(n_estimators=120, learning_rate=0.1, seed=0).fit(X, y)
    assert g.score(Xte, yte) > 0.85


def test_seeded_reproducibility():
    X, y = _data(n=200)
    kw = dict(n_estimators=10, subsample=0.7, colsample=0.7, seed=9)
    a = GradientBoostingRegressor(**kw).fit(X, y).predict(X)
    b = GradientBoostingRegressor(**kw).fit(X, y).predict(X)
    np.testing.assert_array_equal(a, b)


def test_validation():
    with pytest.raises(ValueError):
        GradientBoostingRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(learning_rate=0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(subsample=0.0)
    with pytest.raises(ValueError):
        GradientBoostingRegressor(reg_lambda=-1)
    with pytest.raises(RuntimeError):
        GradientBoostingRegressor().predict(np.zeros((2, 2)))
