"""Tree models refuse non-finite training data.

A NaN in a column with more than 256 distinct values collapses its
quantile bin edges, so every row lands in bin 0 and the column silently
stops splitting; a NaN in ``y`` fits and then predicts NaN.  ``fit`` must
raise instead, and name the offending array.
"""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

MODELS = {
    "tree": lambda: DecisionTreeRegressor(max_depth=4),
    "forest": lambda: RandomForestRegressor(n_estimators=3, max_depth=4),
    "boosting": lambda: GradientBoostingRegressor(n_estimators=3, max_depth=3),
}


def _data():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(2000, 2))  # > 256 distinct values per column
    y = 5.0 * (X[:, 0] > 0.5)
    return X, y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_fit_rejects_non_finite_X(name, bad):
    X, y = _data()
    X[17, 0] = bad
    with pytest.raises(ValueError, match=r"^X contains 1 non-finite"):
        MODELS[name]().fit(X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_fit_rejects_non_finite_y(name, bad):
    X, y = _data()
    y[3] = bad
    with pytest.raises(ValueError, match=r"^y contains 1 non-finite"):
        MODELS[name]().fit(X, y)


def test_finite_column_past_bin_limit_splits():
    """The clean counterpart of the NaN case: the same column splits, at
    the quantile edge nearest the step."""
    X, y = _data()
    model = DecisionTreeRegressor(max_depth=1).fit(X, y)
    assert model.tree_.n_leaves == 2 and model.tree_.feature[0] == 0
    assert np.mean(np.abs(model.predict(X) - y)) < 0.1
