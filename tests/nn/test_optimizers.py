"""The Adam update rule and its flat-arena state."""

import numpy as np
import pytest

from repro.nn.optimizers import Adam


def _quadratic_descent(opt, steps=200):
    """Minimise f(w) = ||w||² from w0; return final norm."""
    w = np.array([3.0, -2.0])
    for _ in range(steps):
        opt.step([w], [2 * w])
    return float(np.linalg.norm(w))


@pytest.mark.parametrize("opt,tol", [(Adam(lr=0.1), 1e-2)], ids=["adam"])
def test_converges_on_quadratic(opt, tol):
    assert _quadratic_descent(opt, steps=500) < tol


def test_adam_first_step_magnitude():
    # With bias correction the first step is ~lr regardless of grad scale.
    for scale in (1e-4, 1.0, 1e4):
        opt = Adam(lr=0.01)
        w = np.array([0.0])
        opt.step([w], [np.array([scale])])
        # eps in the denominator matters at tiny gradient scales.
        np.testing.assert_allclose(abs(w[0]), 0.01, rtol=1e-3)


def test_adam_matches_per_parameter_formula():
    """The fused arena update equals the textbook per-parameter Adam."""
    rng = np.random.default_rng(0)
    params = [rng.normal(size=(3, 4)), rng.normal(size=4)]
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    opt = Adam(lr=0.05)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for t in range(1, 4):
        grads = [rng.normal(size=p.shape) for p in params]
        opt.step(params, grads)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            ref[i] -= 0.05 * m_hat / (np.sqrt(v_hat) + eps)
    for p, r in zip(params, ref):
        np.testing.assert_allclose(p, r, rtol=1e-12)


def test_slots_keyed_by_position():
    opt = Adam(lr=0.1)
    w1, w2 = np.zeros(2), np.zeros(3)
    opt.step([w1, w2], [np.ones(2), np.ones(3)])
    # A *new* array of the same shape at the same position keeps its
    # moments (position identifies the logical parameter, not the
    # allocation) …
    m_before = opt._arena["m"].copy()
    opt.step([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)])
    assert not np.array_equal(opt._arena["m"], m_before)  # moments advanced
    assert opt._arena["t"] == 2.0


def test_slot_reinitialised_on_shape_change():
    opt = Adam(lr=0.1)
    opt.step([np.zeros(2)], [np.ones(2)])
    # A differently-shaped parameter list gets fresh state instead of
    # crashing into the stale (2,)-shaped moments.
    w = np.zeros(5)
    opt.step([w], [np.ones(5)])
    assert opt._arena["m"].shape == (5,)
    np.testing.assert_allclose(np.abs(w), opt.lr, rtol=1e-3)  # a first step


def test_reset_clears_slot_state():
    opt = Adam(lr=0.1)
    w = np.zeros(2)
    opt.step([w], [np.ones(2)])
    assert opt._arena is not None
    opt.reset()
    assert opt._arena is None
    # After reset the next step bias-corrects like a first step again.
    w2 = np.zeros(1)
    opt.step([w2], [np.array([10.0])])
    np.testing.assert_allclose(abs(w2[0]), opt.lr, rtol=1e-3)


def test_validation():
    with pytest.raises(ValueError):
        Adam(lr=0.0)
    with pytest.raises(ValueError):
        Adam(beta1=1.0)
    with pytest.raises(ValueError):
        Adam(beta2=-0.1)
    opt = Adam(lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.zeros(2)], [np.zeros(3)])
    with pytest.raises(ValueError):
        opt.step([np.zeros(2)], [])


def test_rejects_mixed_dtypes_and_strided_arrays():
    opt = Adam(lr=0.1)
    with pytest.raises(ValueError, match="dtype"):
        opt.step(
            [np.zeros(2), np.zeros(2, dtype=np.float32)],
            [np.ones(2), np.ones(2, dtype=np.float32)],
        )
    strided = np.zeros(4)[::2]
    with pytest.raises(ValueError, match="contiguous"):
        opt.step([strided], [np.ones(2)])
