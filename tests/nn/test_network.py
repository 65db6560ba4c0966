"""Sequential training loop and whole-network gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    BatchNorm1d,
    BCEWithLogitsLoss,
    Dense,
    Dropout,
    EarlyStopping,
    Sequential,
    SmoothL1Loss,
)
from tests.nn.gradcheck import max_gradient_error

LOSSES = {"smooth_l1": SmoothL1Loss, "bce_logits": BCEWithLogitsLoss}


def _make_net(loss="smooth_l1", hidden=8, in_dim=4, bn=False, dropout=0.0):
    layers = [Dense(in_dim, hidden, seed=1)]
    if bn:
        layers.append(BatchNorm1d(hidden))
    layers += [Activation("elu")]
    if dropout:
        layers.append(Dropout(dropout, seed=2))
    layers.append(Dense(hidden, 1, seed=3))
    return Sequential(layers).compile(LOSSES[loss](), Adam(lr=1e-2))


@pytest.mark.parametrize("loss", ["smooth_l1"])
@pytest.mark.parametrize("bn", [False, True])
def test_whole_network_gradients_exact(loss, bn):
    rng = np.random.default_rng(0)
    net = _make_net(loss=loss, bn=bn)
    X = rng.normal(size=(12, 4))
    y = rng.normal(size=(12,)) + 0.05  # keep off loss kinks
    assert max_gradient_error(net, X, y) < 1e-6


def test_bce_network_gradients_exact():
    rng = np.random.default_rng(1)
    net = _make_net(loss="bce_logits")
    X = rng.normal(size=(12, 4))
    y = (rng.random(12) > 0.5).astype(float)
    assert max_gradient_error(net, X, y) < 1e-6


def test_learns_linear_function():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0])
    net = _make_net(hidden=32)
    net.fit(X, y, epochs=60, batch_size=64, seed=0)
    pred = net.predict(X)
    assert np.corrcoef(pred, y)[0, 1] > 0.99


def test_loss_decreases_during_training():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    y = np.sin(X[:, 0])
    net = _make_net(hidden=16)
    hist = net.fit(X, y, epochs=20, batch_size=32, seed=0)
    losses = hist.series("loss")
    assert losses[-1] < losses[0] * 0.8


def test_early_stopping_restores_best():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 4))
    y = rng.normal(size=100)  # pure noise: val loss will wander
    net = _make_net(hidden=8)
    stop = EarlyStopping(monitor="val_loss", patience=2)
    hist = net.fit(
        X[:80],
        y[:80],
        epochs=50,
        validation_data=(X[80:], y[80:]),
        callbacks=[stop],
        seed=0,
    )
    n_epochs = len(hist.epochs)
    assert n_epochs < 50  # stopped early
    # Restored weights reproduce the best recorded val loss.
    best = min(e["val_loss"] for e in hist.epochs)
    np.testing.assert_allclose(net.evaluate(X[80:], y[80:]), best, rtol=1e-9)


def test_validation_loss_logged():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    net = _make_net()
    hist = net.fit(X, y, epochs=2, validation_data=(X, y), seed=0)
    assert "val_loss" in hist.epochs[0]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_batching_consistent(dtype):
    rng = np.random.default_rng(0)
    net = _make_net().astype(dtype)
    X = rng.normal(size=(97, 4))
    # float32 BLAS kernels may reorder accumulation with the batch shape,
    # so the tolerance tracks the dtype; float64 stays near-exact.
    atol = {"float32": 1e-5, "float64": 1e-12}[dtype]
    np.testing.assert_allclose(
        net.predict(X, batch_size=8), net.predict(X, batch_size=1000), atol=atol
    )


def test_fit_requires_compile():
    net = Sequential([Dense(2, 1)])
    with pytest.raises(RuntimeError, match="compile"):
        net.fit(np.zeros((4, 2)), np.zeros(4), epochs=1)
    with pytest.raises(RuntimeError, match="compile"):
        net.evaluate(np.zeros((4, 2)), np.zeros(4))


def test_fit_validates_args():
    net = _make_net()
    with pytest.raises(ValueError):
        net.fit(np.zeros((4, 4)), np.zeros(4), epochs=0)
    with pytest.raises(ValueError):
        net.fit(np.zeros((4, 4)), np.zeros(3), epochs=1)


def test_deterministic_given_seed():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)

    def train():
        net = _make_net(dropout=0.2)
        net.fit(X, y, epochs=3, seed=7)
        return net.predict(X)

    np.testing.assert_array_equal(train(), train())


def test_n_parameters():
    net = _make_net(hidden=8, in_dim=4)
    assert net.n_parameters == (4 * 8 + 8) + (8 * 1 + 1)
