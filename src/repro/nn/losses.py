"""Training losses.

The regressor uses smooth L1 (Girshick 2015) — "a combination of mean
absolute error and mean squared error … can account for large misses due to
long queue time jobs with outlier wait times and help prevent the effects of
the exploding gradient problem".  The classifier trains on
BCE-with-logits, the differentiable surrogate of the paper's "pure
percentage accuracy" objective (valid because SMOTE balances the classes).

All losses return the *mean* over elements; ``backward`` returns the
gradient w.r.t. predictions with the 1/N folded in.

Losses follow the network dtype: elementwise work happens in the dtype
of the inputs (float32 unless the net is the float64 reference) inside
workspace buffers reused across batches, while the scalar mean always accumulates
in float64 so reported losses stay well-conditioned.  The gradient array
returned by ``backward`` is a reused buffer — valid until the next
``forward`` of the same loss.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import Workspace

__all__ = ["Loss", "SmoothL1Loss", "BCEWithLogitsLoss"]


class Loss:
    """Base loss; stateless apart from the cached residuals and buffers."""

    def __init__(self) -> None:
        self._ws = Workspace()

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _check(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pred = np.asarray(pred)
        target = np.asarray(target)
        if not np.issubdtype(pred.dtype, np.floating):
            pred = pred.astype(np.float64)
        if not np.issubdtype(target.dtype, np.floating):
            target = target.astype(np.float64)
        if pred.shape != target.shape:
            raise ValueError(
                f"pred shape {pred.shape} != target shape {target.shape}"
            )
        return pred, target

    def _buf(self, tag: str, like_a: np.ndarray, like_b: np.ndarray) -> np.ndarray:
        dtype = np.result_type(like_a.dtype, like_b.dtype)
        return self._ws.buf(tag, like_a.shape, dtype)


class SmoothL1Loss(Loss):
    """Huber-style smooth L1: quadratic inside ``beta``, linear outside."""

    def __init__(self, beta: float = 1.0) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        super().__init__()
        self.beta = beta

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        pred, target = self._check(pred, target)
        self._diff = self._buf("diff", pred, target)
        np.subtract(pred, target, out=self._diff)
        # With a = |diff| and m = min(a, β) the per-element loss is
        # m²/(2β) + (a − m): the quadratic branch where a < β (m = a),
        # the linear branch a − β/2 where a ≥ β (m = β).
        a = self._ws.buf("t", self._diff.shape, self._diff.dtype)
        m = self._ws.buf("t2", self._diff.shape, self._diff.dtype)
        np.abs(self._diff, out=a)
        np.minimum(a, self.beta, out=m)
        a -= m
        np.multiply(m, m, out=m)
        m *= 0.5 / self.beta
        a += m
        return float(a.mean(dtype=np.float64))

    def backward(self) -> np.ndarray:
        # where(a<β, diff/β, sign(diff)) ≡ clip(diff/β, −1, 1).
        g = self._ws.buf("grad", self._diff.shape, self._diff.dtype)
        np.divide(self._diff, self.beta, out=g)
        np.clip(g, -1.0, 1.0, out=g)
        g /= self._diff.size
        return g


class BCEWithLogitsLoss(Loss):
    """Binary cross-entropy on raw logits (numerically stable).

    ``loss = mean(max(z,0) − z·y + log(1+e^{−|z|}))``; the gradient is the
    classic ``σ(z) − y``.
    """

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        z, y = self._check(pred, target)
        if float(y.min()) < 0.0 or float(y.max()) > 1.0:
            raise ValueError("targets must lie in [0, 1]")
        sig = self._buf("sig", z, y)
        np.multiply(z, 0.5, out=sig)
        np.tanh(sig, out=sig)
        sig += 1.0
        sig *= 0.5
        self._sig, self._y = sig, y
        t = self._ws.buf("t", sig.shape, sig.dtype)
        t2 = self._ws.buf("t2", sig.shape, sig.dtype)
        np.abs(z, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(z, 0.0, out=t2)
        t += t2
        np.multiply(z, y, out=t2)
        t -= t2
        return float(t.mean(dtype=np.float64))

    def backward(self) -> np.ndarray:
        g = self._ws.buf("grad", self._sig.shape, self._sig.dtype)
        np.subtract(self._sig, self._y, out=g)
        g /= self._y.size
        return g
