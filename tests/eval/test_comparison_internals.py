"""Comparison harness internals: log-space wrapper and tuned-NN factory."""

import numpy as np
import pytest

from repro.core import TroutConfig, TuningConfig
from repro.core.zoo import _LogSpaceModel, _TunedNN, default_model_zoo
from repro.ml import KNeighborsRegressor


def test_logspace_wrapper_roundtrips_minutes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    minutes = np.exp(2.0 + X[:, 0])
    m = _LogSpaceModel(KNeighborsRegressor(n_neighbors=1)).fit(X, minutes)
    np.testing.assert_allclose(m.predict_minutes(X), minutes, rtol=1e-9)


def test_logspace_wrapper_caps_blowups():
    class Explodes:
        def fit(self, X, y):
            return self

        def predict(self, X):
            return np.full(len(X), 1e6)  # absurd log-space output

    m = _LogSpaceModel(Explodes()).fit(np.zeros((2, 1)), np.ones(2))
    out = m.predict_minutes(np.zeros((3, 1)))
    assert np.all(np.isfinite(out))


def test_default_zoo_members():
    zoo = default_model_zoo(4, TroutConfig(seed=0))
    assert set(zoo) == {"neural_net", "xgboost", "random_forest", "knn"}
    # Factories take the fold number and build fresh models.
    a = zoo["random_forest"](1)
    b = zoo["random_forest"](1)
    assert a is not b


def test_tuned_nn_factory_and_fit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 4))
    minutes = np.exp(1.0 + X[:, 0])
    tuning = TuningConfig(n_trials=2, n_seeds=1, epochs=8, patience=3, seed=0)
    zoo = default_model_zoo(4, TroutConfig(seed=0), tuning=tuning)
    nn = zoo["neural_net"](1)
    assert isinstance(nn, _TunedNN)
    nn.fit(X, minutes)
    pred = nn.predict_minutes(X[:20])
    assert pred.shape == (20,) and np.all(pred >= 0)
