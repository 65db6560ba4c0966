"""Loss values and gradients."""

import numpy as np
import pytest

from repro.nn.losses import BCEWithLogitsLoss, SmoothL1Loss


def _num_grad(loss, pred, target, eps=1e-6):
    g = np.zeros_like(pred)
    for i in np.ndindex(pred.shape):
        p = pred.copy()
        p[i] += eps
        up = loss.forward(p, target)
        p[i] -= 2 * eps
        down = loss.forward(p, target)
        g[i] = (up - down) / (2 * eps)
    return g


@pytest.mark.parametrize(
    "loss",
    [SmoothL1Loss(beta=0.7), BCEWithLogitsLoss()],
    ids=["smooth_l1", "bce_logits"],
)
def test_gradient_matches_numeric(loss):
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(6, 1))
    if isinstance(loss, BCEWithLogitsLoss):
        target = (rng.random((6, 1)) > 0.5).astype(float)
    else:
        target = rng.normal(size=(6, 1))
    # Keep |pred-target| away from the non-smooth kinks.
    pred = pred + np.sign(pred - target) * 0.05
    loss.forward(pred, target)
    analytic = loss.backward()
    numeric = _num_grad(loss, pred, target)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_smooth_l1_piecewise():
    l = SmoothL1Loss(beta=1.0)
    # Inside beta: quadratic.
    np.testing.assert_allclose(l.forward(np.array([0.5]), np.array([0.0])), 0.125)
    # Outside: linear (a − beta/2).
    np.testing.assert_allclose(l.forward(np.array([3.0]), np.array([0.0])), 2.5)


def test_smooth_l1_robust_to_outliers():
    # Gradient magnitude saturates at 1/N, unlike a squared error.
    l = SmoothL1Loss(beta=1.0)
    l.forward(np.array([1000.0]), np.array([0.0]))
    assert abs(l.backward()[0]) <= 1.0


def test_bce_matches_reference():
    z = np.array([0.0, 2.0, -2.0])
    y = np.array([1.0, 1.0, 0.0])
    want = -np.mean(
        y * np.log(1 / (1 + np.exp(-z))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-z)))
    )
    got = BCEWithLogitsLoss().forward(z, y)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_bce_stable_extreme_logits():
    val = BCEWithLogitsLoss().forward(np.array([1e4, -1e4]), np.array([1.0, 0.0]))
    assert np.isfinite(val) and val < 1e-6


def test_bce_rejects_bad_targets():
    with pytest.raises(ValueError):
        BCEWithLogitsLoss().forward(np.zeros(2), np.array([0.0, 2.0]))


def test_shape_mismatch():
    with pytest.raises(ValueError):
        SmoothL1Loss().forward(np.zeros(3), np.zeros(4))


def test_smooth_l1_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        SmoothL1Loss(beta=0)
