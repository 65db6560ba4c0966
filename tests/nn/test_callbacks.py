"""Callback behaviour in isolation."""

import numpy as np
import pytest

from repro.nn import Activation, Adam, Dense, Sequential, SmoothL1Loss
from repro.nn.callbacks import EarlyStopping, History


def _net():
    return Sequential(
        [Dense(2, 4, seed=0), Activation("tanh"), Dense(4, 1, seed=1)]
    ).compile(SmoothL1Loss(), Adam(lr=0.1))


def test_history_series():
    h = History()
    net = _net()
    h.on_train_begin(net)
    h.on_epoch_end(net, 0, {"loss": 1.0})
    h.on_epoch_end(net, 1, {"loss": 0.5, "val_loss": 0.7})
    np.testing.assert_array_equal(h.series("loss"), [1.0, 0.5])
    assert np.isnan(h.series("val_loss")[0])


def test_early_stopping_patience_counting():
    es = EarlyStopping(monitor="loss", patience=2, restore_best=False)
    net = _net()
    es.on_train_begin(net)
    assert not es.on_epoch_end(net, 0, {"loss": 1.0})
    assert not es.on_epoch_end(net, 1, {"loss": 1.1})  # 1 bad epoch
    assert es.on_epoch_end(net, 2, {"loss": 1.2})  # 2 bad epochs -> stop
    assert es.best == 1.0 and es.best_epoch == 0


def test_early_stopping_min_delta():
    es = EarlyStopping(monitor="loss", patience=1, min_delta=0.5, restore_best=False)
    net = _net()
    es.on_train_begin(net)
    es.on_epoch_end(net, 0, {"loss": 1.0})
    # 0.9 improves by < min_delta -> counts as no improvement -> stop.
    assert es.on_epoch_end(net, 1, {"loss": 0.9})


def test_early_stopping_missing_key_raises():
    es = EarlyStopping(monitor="val_loss")
    net = _net()
    es.on_train_begin(net)
    with pytest.raises(KeyError):
        es.on_epoch_end(net, 0, {"loss": 1.0})


def test_validation():
    with pytest.raises(ValueError):
        EarlyStopping(patience=0)


def test_metrics_callback_publishes_epoch_signals():
    from repro.nn.callbacks import MetricsCallback
    from repro.obs import metrics

    reg = metrics.get_registry()
    reg.reset()
    try:
        net = _net()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 2))
        y = (X[:, 0] + X[:, 1]).reshape(-1, 1)
        net.fit(
            X,
            y,
            epochs=3,
            batch_size=16,
            validation_data=(X[:16], y[:16]),
            callbacks=[MetricsCallback(model="toy")],
            seed=0,
        )
        snap = reg.snapshot()
        names = {e["name"]: e for e in snap["counters"] + snap["gauges"]}
        assert names["nn_epochs_total"]["value"] == 3.0
        assert names["nn_epochs_total"]["labels"] == {"model": "toy"}
        assert names["nn_epoch_loss"]["value"] > 0.0
        assert "nn_epoch_val_loss" in names
        assert names["nn_learning_rate"]["value"] == pytest.approx(0.1)
        assert names["nn_grad_norm"]["value"] > 0.0
    finally:
        reg.reset()


def test_metrics_callback_no_val_loss_gauge_without_validation():
    from repro.nn.callbacks import MetricsCallback
    from repro.obs import metrics

    reg = metrics.get_registry()
    reg.reset()
    try:
        net = _net()
        rng = np.random.default_rng(1)
        X = rng.normal(size=(32, 2))
        y = X.sum(axis=1).reshape(-1, 1)
        net.fit(X, y, epochs=2, batch_size=16,
                callbacks=[MetricsCallback()], seed=0)
        gauges = {e["name"] for e in reg.snapshot()["gauges"]}
        assert "nn_epoch_val_loss" not in gauges
        assert "nn_epoch_loss" in gauges
    finally:
        reg.reset()
