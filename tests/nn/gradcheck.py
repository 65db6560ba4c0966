"""Finite-difference gradient checking.

Used by the test suite to certify that every layer/loss combination
backpropagates the exact gradient — the correctness foundation for
trusting the from-scratch framework at all.  It is check-only code, so it
lives with the tests rather than in :mod:`repro.nn`.

Gradient checking is **pinned to float64**: central differences at
``eps=1e-6`` drown in float32 rounding (the perturbation itself is near
the ulp of typical weights), so both helpers convert a float32 net to
the float64 reference path in place before measuring.  The check
certifies the backprop *algebra*, which is dtype-independent.
"""

from __future__ import annotations

import numpy as np

from repro.nn.network import Sequential

__all__ = ["numeric_gradients", "max_gradient_error"]


def _pin_float64(net: Sequential, X: np.ndarray, y: np.ndarray):
    if net.dtype != np.float64:
        net.astype(np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    return X, y


def numeric_gradients(
    net: Sequential,
    X: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-6,
) -> list[np.ndarray]:
    """Central-difference gradients of the compiled loss w.r.t. all params.

    O(#params) loss evaluations — strictly a test utility.  Casts the net
    to float64 in place (see module docstring).
    """
    if net.loss is None:
        raise RuntimeError("compile() the network before gradient checking")
    X, y = _pin_float64(net, X, y)

    def loss_value() -> float:
        # training=True so batch-norm uses batch statistics — the same
        # function the analytic backward pass differentiates.  (Running
        # stats drift as a side effect; they do not affect the loss.)
        return net.loss.forward(net.forward(X, training=True), y)

    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + eps
            up = loss_value()
            flat_p[k] = orig - eps
            down = loss_value()
            flat_p[k] = orig
            flat_g[k] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def max_gradient_error(
    net: Sequential, X: np.ndarray, y: np.ndarray, eps: float = 1e-6
) -> float:
    """Max relative error between backprop and numeric gradients.

    The network must contain no stochastic layers (dropout) for the check
    to be meaningful.  Relative error uses ``|a−n| / max(1, |a|+|n|)``.
    Casts the net to float64 in place (see module docstring).
    """
    X, y = _pin_float64(net, X, y)
    out = net.forward(X, training=True)
    net.loss.forward(out, y)
    net.backward(net.loss.backward())
    analytic = [g.copy() for g in net.gradients()]
    numeric = numeric_gradients(net, X, y, eps=eps)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
