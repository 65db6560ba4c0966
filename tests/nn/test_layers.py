"""Layer mechanics: shapes, caching, dropout semantics, batchnorm state."""

import numpy as np
import pytest

from repro.nn.layers import Activation, BatchNorm1d, Dense, Dropout


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_dense_forward_shape_and_linearity(dtype):
    atol = {"float32": 1e-6, "float64": 1e-12}[dtype]
    d = Dense(3, 5, seed=0, dtype=dtype)
    x = np.random.default_rng(0).normal(size=(7, 3))
    # forward() returns a reused buffer — copy before the next forward.
    out = d.forward(x).copy()
    assert out.shape == (7, 5) and out.dtype == dtype
    np.testing.assert_allclose(d.forward(2 * x) - d.b, 2 * (out - d.b), atol=atol)


def test_dense_input_validation():
    d = Dense(3, 5)
    with pytest.raises(ValueError):
        d.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        Dense(0, 5)


def test_dense_backward_requires_training_forward():
    d = Dense(3, 2)
    d.forward(np.zeros((2, 3)), training=False)
    with pytest.raises(RuntimeError):
        d.backward(np.zeros((2, 2)))


def test_dense_param_gradient_shapes():
    d = Dense(3, 2, seed=0)
    x = np.random.default_rng(1).normal(size=(4, 3))
    d.forward(x, training=True)
    gin = d.backward(np.ones((4, 2)))
    assert gin.shape == (4, 3)
    assert d.dW.shape == d.W.shape and d.db.shape == d.b.shape
    assert d.n_parameters == 3 * 2 + 2


def test_dropout_inference_identity():
    drop = Dropout(0.5, seed=0)
    x = np.ones((10, 4))
    np.testing.assert_array_equal(drop.forward(x, training=False), x)


def test_dropout_training_scales():
    drop = Dropout(0.5, seed=0)
    x = np.ones((2000, 10))
    out = drop.forward(x, training=True)
    kept = out[out > 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted dropout
    assert abs(out.mean() - 1.0) < 0.05  # expectation preserved


def test_dropout_zero_rate_noop():
    drop = Dropout(0.0)
    x = np.ones((3, 3))
    np.testing.assert_array_equal(drop.forward(x, training=True), x)
    with pytest.raises(ValueError):
        Dropout(1.0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_batchnorm_normalises_batch(dtype):
    atol = {"float32": 1e-6, "float64": 1e-9}[dtype]
    bn = BatchNorm1d(4, dtype=dtype)
    x = np.random.default_rng(0).normal(5.0, 3.0, size=(256, 4))
    out = bn.forward(x, training=True)
    assert out.dtype == dtype
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=atol)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_running_stats_converge():
    bn = BatchNorm1d(2, momentum=0.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        bn.forward(rng.normal(3.0, 2.0, size=(128, 2)), training=True)
    np.testing.assert_allclose(bn.running_mean, 3.0, atol=0.3)
    np.testing.assert_allclose(np.sqrt(bn.running_var), 2.0, atol=0.3)
    # Inference uses running stats.
    out = bn.forward(np.full((4, 2), 3.0), training=False)
    np.testing.assert_allclose(out, 0.0, atol=0.2)


def test_batchnorm_validation():
    with pytest.raises(ValueError):
        BatchNorm1d(0)
    with pytest.raises(ValueError):
        BatchNorm1d(2, momentum=0.0)


def test_activation_layer_caches_only_in_training():
    layer = Activation("relu")
    layer.forward(np.ones((2, 2)), training=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((2, 2)))
