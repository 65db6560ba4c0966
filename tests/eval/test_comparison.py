"""Model-zoo comparison harness."""

import numpy as np
import pytest

from repro.core import TroutConfig
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.zoo import ComparisonResult, ModelScore, compare_models


@pytest.fixture(scope="module")
def comparison(feature_matrix):
    fm, _ = feature_matrix
    cfg = TroutConfig(
        regressor=RegressorConfig(hidden=(32, 16), epochs=15, patience=3), seed=0
    )
    # Small zoo on the last two folds keeps the test quick.
    from repro.core.zoo import default_model_zoo

    zoo = default_model_zoo(fm.X.shape[1], cfg, seed=0)
    zoo["xgboost"] = (lambda inner: (lambda k: inner(k)))(zoo["xgboost"])
    return compare_models(fm, cfg, folds=[4, 5])


def test_all_models_scored_per_fold(comparison):
    assert set(comparison.models()) == {"neural_net", "xgboost", "random_forest", "knn"}
    for fold in (4, 5):
        series = comparison.series("mape", fold)
        assert len(series) == 4
        assert all(v > 0 for v in series.values())


def test_within100_bounded(comparison):
    for s in comparison.scores:
        assert 0.0 <= s.within_100 <= 1.0


def test_per_fold_pivot(comparison):
    pivot = comparison.per_fold("mape")
    assert all(len(v) == 2 for v in pivot.values())


def test_winner_helper():
    scores = [
        ModelScore("a", 1, mape=50.0, within_100=0.9, pearson=0.5, n_test=10),
        ModelScore("b", 1, mape=80.0, within_100=0.7, pearson=0.4, n_test=10),
    ]
    r = ComparisonResult(scores)
    assert r.winner("mape", 1) == "a"
    assert r.winner("within_100", 1, smaller_is_better=False) == "a"
