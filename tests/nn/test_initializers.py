"""Weight initialisers: scale laws and registry."""

import numpy as np
import pytest

from repro.nn.initializers import get_initializer, glorot_uniform, he_normal


@pytest.mark.parametrize(
    "fn,expected_var",
    [
        (he_normal, lambda fi, fo: 2.0 / fi),
        (glorot_uniform, lambda fi, fo: 2.0 / (fi + fo)),
    ],
    ids=["he_normal", "glorot_uniform"],
)
def test_variance_scaling(fn, expected_var):
    rng = np.random.default_rng(0)
    fi, fo = 400, 300
    W = fn(fi, fo, rng)
    assert W.shape == (fi, fo)
    np.testing.assert_allclose(W.mean(), 0.0, atol=5e-3)
    np.testing.assert_allclose(W.var(), expected_var(fi, fo), rtol=0.05)


def test_uniform_initialisers_bounded():
    rng = np.random.default_rng(0)
    W = glorot_uniform(100, 50, rng)
    limit = np.sqrt(6.0 / 150)
    assert np.all(np.abs(W) <= limit)


def test_deterministic_given_generator():
    a = he_normal(10, 10, np.random.default_rng(5))
    b = he_normal(10, 10, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_registry():
    assert get_initializer("he_normal") is he_normal
    assert get_initializer("glorot_uniform") is glorot_uniform
    with pytest.raises(KeyError):
        get_initializer("nope")
