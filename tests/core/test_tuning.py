"""Regressor HPO tuning."""

import numpy as np
import pytest

from repro.core.tuning import TuningConfig, _config_from_params, tune_regressor


def _queueish(n=1500, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    minutes = np.exp(1.0 + 1.2 * X[:, 0] + 0.5 * X[:, 1])
    return X, minutes


def test_config_materialisation():
    t = TuningConfig()
    cfg = _config_from_params({"h1": 128, "depth": 3, "lr": 1e-3, "dropout": 0.1}, t)
    assert cfg.hidden == (128, 64, 32)
    assert cfg.lr == 1e-3
    cfg = _config_from_params({"h1": 16, "depth": 4, "lr": 1e-3, "dropout": 0.0}, t)
    assert cfg.hidden == (16, 8, 8, 8)  # floor at 8


def test_tune_returns_fitted_model():
    X, m = _queueish()
    tuning = TuningConfig(n_trials=4, n_seeds=2, epochs=20, patience=4, seed=0)
    model, study = tune_regressor(X, m, tuning)
    pred = model.predict_minutes(X[-100:])
    assert pred.shape == (100,)
    assert np.all(pred >= 0)
    assert len(study.trials) == 4
    assert set(study.best_params) == {"h1", "depth", "lr", "dropout"}


def test_tuned_model_learns():
    X, m = _queueish(2000)
    tuning = TuningConfig(n_trials=5, n_seeds=1, epochs=40, patience=6, seed=1)
    model, _ = tune_regressor(X, m, tuning)
    Xte, mte = _queueish(300, seed=9)
    r = np.corrcoef(np.log1p(model.predict_minutes(Xte)), np.log1p(mte))[0, 1]
    assert r > 0.8


def test_validation():
    with pytest.raises(ValueError):
        TuningConfig(n_trials=0)
    with pytest.raises(ValueError):
        TuningConfig(val_fraction=0.9)
    X, m = _queueish(30)
    with pytest.raises(ValueError):
        tune_regressor(X, m[:-5], TuningConfig(n_trials=1))


def test_search_respects_bounds():
    X, m = _queueish(800)
    tuning = TuningConfig(
        n_trials=6,
        n_seeds=1,
        epochs=10,
        patience=3,
        width_low=16,
        width_high=32,
        depth_low=2,
        depth_high=2,
        seed=0,
    )
    _, study = tune_regressor(X, m, tuning)
    for t in study.trials:
        assert 16 <= t.params["h1"] <= 32
        assert t.params["depth"] == 2
