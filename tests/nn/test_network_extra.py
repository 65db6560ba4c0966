"""Additional Sequential semantics."""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Adam,
    Dense,
    LeakyReLU,
    Sequential,
    SmoothL1Loss,
    load_network,
    save_network,
)


def _net():
    return Sequential(
        [Dense(3, 8, seed=0), Activation(LeakyReLU(0.07)), Dense(8, 1, seed=1)]
    ).compile(SmoothL1Loss(), Adam(lr=1e-2))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_evaluate_batch_weighting_exact(dtype):
    """evaluate() must equal the loss over the whole set regardless of
    batch size (sample-weighted accumulation)."""
    rng = np.random.default_rng(0)
    net = _net().astype(dtype)
    X = rng.normal(size=(103, 3))  # deliberately not divisible
    y = rng.normal(size=103)
    full = net.evaluate(X, y, batch_size=1000)
    chunked = net.evaluate(X, y, batch_size=10)
    # Batch-shape-dependent float32 BLAS accumulation order loosens the
    # bound; float64 stays near-exact.
    rtol = {"float32": 1e-6, "float64": 1e-12}[dtype]
    np.testing.assert_allclose(full, chunked, rtol=rtol)


def test_leaky_relu_alpha_survives_serialisation(tmp_path):
    net = _net()
    save_network(net, tmp_path / "n.npz")
    loaded = load_network(tmp_path / "n.npz")
    act = [l for l in loaded.layers if isinstance(l, Activation)][0]
    assert act.fn.alpha == 0.07


def test_add_chaining_and_repr():
    net = Sequential().add(Dense(2, 4, seed=0)).add(Activation("relu"))
    assert len(net.layers) == 2
    assert "Sequential" in repr(net)


def test_forward_multi_output_predict_shape():
    net = Sequential([Dense(3, 5, seed=0)]).compile(SmoothL1Loss(), Adam())
    out = net.predict(np.zeros((7, 3)))
    assert out.shape == (7, 5)  # multi-column outputs stay 2-D


def test_fit_no_shuffle_deterministic_order():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 3))
    y = rng.normal(size=64)

    def run():
        net = _net()
        net.fit(X, y, epochs=2, batch_size=16, shuffle=False)
        return net.predict(X)

    np.testing.assert_array_equal(run(), run())
