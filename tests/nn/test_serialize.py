"""Network save/load round trips."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    BatchNorm1d,
    Dense,
    Dropout,
    Sequential,
    SmoothL1Loss,
    load_network,
    save_network,
)


def _trained_net(seed=0):
    rng = np.random.default_rng(seed)
    net = Sequential(
        [
            Dense(5, 16, seed=1),
            BatchNorm1d(16),
            Activation("elu"),
            Dropout(0.1, seed=2),
            Dense(16, 1, seed=3),
        ]
    ).compile(SmoothL1Loss(), Adam(lr=1e-2))
    X = rng.normal(size=(200, 5))
    y = X.sum(axis=1)
    net.fit(X, y, epochs=5, seed=0)
    return net, X


def test_roundtrip_preserves_predictions(tmp_path):
    net, X = _trained_net()
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path)
    np.testing.assert_allclose(loaded.predict(X), net.predict(X), atol=1e-12)


def test_roundtrip_preserves_batchnorm_state(tmp_path):
    net, _ = _trained_net()
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path)
    bn_orig = [l for l in net.layers if isinstance(l, BatchNorm1d)][0]
    bn_new = [l for l in loaded.layers if isinstance(l, BatchNorm1d)][0]
    np.testing.assert_array_equal(bn_new.running_mean, bn_orig.running_mean)
    np.testing.assert_array_equal(bn_new.running_var, bn_orig.running_var)


def test_architecture_preserved(tmp_path):
    net, _ = _trained_net()
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path)
    assert [type(l).__name__ for l in loaded.layers] == [
        type(l).__name__ for l in net.layers
    ]
    # ELU alpha and dropout p survive.
    assert loaded.layers[2].fn.alpha == net.layers[2].fn.alpha
    assert loaded.layers[3].p == net.layers[3].p


def test_loaded_net_can_continue_training(tmp_path):
    net, X = _trained_net()
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path).compile(SmoothL1Loss(), Adam(lr=1e-3))
    y = X.sum(axis=1)
    loaded.fit(X, y, epochs=1, seed=0)  # must not raise


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_roundtrip_preserves_dtype_and_bits(tmp_path, dtype):
    net, X = _trained_net()
    net = net.astype(dtype)
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.dtype == dtype
    assert all(p.dtype == dtype for p in loaded.parameters())
    # Weights survive bit-for-bit, so predictions are identical.
    np.testing.assert_array_equal(loaded.predict(X), net.predict(X))


def test_unsaveable_layer_rejected(tmp_path):
    from repro.nn.layers import Layer

    class Custom(Layer):
        def forward(self, x, training=False):
            return x

    net = Sequential([Custom()])
    with pytest.raises(ValueError, match="cannot be saved"):
        save_network(net, tmp_path / "x.npz")
