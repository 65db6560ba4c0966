"""Sequential network with minibatch training.

The container for the paper's two models: the 2-hidden-layer quick-start
classifier and the 3-hidden-layer ELU regressor.  ``fit`` runs shuffled
minibatch epochs with optional validation and callbacks; ``predict``
streams batches so inference over a full trace never materialises giant
intermediates.

The network computes in float32 unless built with ``dtype="float64"``
(the reference path; see :mod:`repro.nn.dtypes`) and trains
allocation-free in steady state: batches are gathered with
``np.take(..., out=...)`` into preallocated buffers, layers and losses
reuse per-shape workspaces, and the optimiser updates in place — after
the first epoch warms the buffers up, the net heap-block delta of an
epoch span stays flat (exported as the ``nn_alloc_blocks_per_epoch`` gauge,
labelled by dtype).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.callbacks import Callback, History
from repro.nn.dtypes import Workspace, resolve_nn_dtype
from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.optimizers import Adam
from repro.obs import metrics, tracing
from repro.utils.rng import default_rng
from repro.utils.validation import check_2d, check_consistent_length

__all__ = ["Sequential"]


class Sequential:
    """A stack of layers trained end to end.

    Usage::

        net = Sequential([Dense(33, 128, seed=rng), Activation("elu"), ...])
        net.compile(SmoothL1Loss(), Adam(lr=1e-3))
        net.fit(X, y, epochs=30, batch_size=512, seed=0)
        pred = net.predict(X_new)

    ``dtype`` selects the compute/parameter precision: float32 unless
    ``"float64"`` is passed for the bit-stable reference path.  Layers are
    cast to the network dtype on construction and on :meth:`add`.
    """

    def __init__(
        self,
        layers: Sequence[Layer] | None = None,
        dtype: str | np.dtype | None = None,
    ) -> None:
        self.dtype = resolve_nn_dtype(dtype)
        self.layers: list[Layer] = []
        for layer in layers or ():
            self.add(layer)
        self.loss: Loss | None = None
        self.optimizer: Adam | None = None
        self.history = History()
        self._ws = Workspace()

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer (chainable), casting it to the network dtype."""
        layer.set_dtype(self.dtype)
        self.layers.append(layer)
        return self

    def astype(self, dtype: str | np.dtype) -> "Sequential":
        """Switch the compute dtype in place.

        Parameters are cast, reusable buffers dropped, and optimiser
        state reset (stale moments in the old precision would otherwise
        leak into the new one).
        """
        dtype = resolve_nn_dtype(dtype)
        if dtype == self.dtype:
            return self
        self.dtype = dtype
        for layer in self.layers:
            layer.set_dtype(dtype)
        self._ws.clear()
        if self.optimizer is not None:
            self.optimizer.reset()
        return self

    def compile(self, loss: Loss, optimizer: Adam) -> "Sequential":
        """Attach loss and optimiser."""
        self.loss = loss
        self.optimizer = optimizer
        return self

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[np.ndarray]:
        """All trainable parameter arrays, in layer order."""
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays parallel to :meth:`parameters`."""
        return [g for layer in self.layers for g in layer.grads]

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the stack; 1-column outputs stay 2-D until :meth:`predict`.

        The returned array is a layer-owned buffer, valid until the next
        forward pass — copy it to keep it (:meth:`predict` does).
        """
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the stack; returns grad w.r.t. the input."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train_batch(self, xb: np.ndarray, yb: np.ndarray) -> float:
        """One forward/backward/update step; returns the batch loss."""
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("call compile() before training")
        out = self.forward(xb, training=True)
        loss_val = self.loss.forward(out, yb)
        self.backward(self.loss.backward())
        self.optimizer.step(self.parameters(), self.gradients())
        return loss_val

    # ------------------------------------------------------------------ #
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 256,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        callbacks: Sequence[Callback] = (),
        seed: int | np.random.Generator | None = None,
        shuffle: bool = True,
    ) -> History:
        """Minibatch training.

        ``y`` may be 1-D (promoted to a column) or 2-D.  Returns the
        :class:`History` with per-epoch ``loss`` (mean over batches) and,
        when validation data is given, ``val_loss``.
        """
        X = check_2d(X, "X", dtype=self.dtype)
        y = np.ascontiguousarray(y, dtype=self.dtype)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        check_consistent_length(X, y)
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("call compile() before fit()")
        if validation_data is not None:
            # Cast once up front so per-epoch evaluate() calls are no-copy.
            Xv, yv = validation_data
            validation_data = (check_2d(Xv, "X_val", dtype=self.dtype), yv)
        rng = default_rng(seed)
        n = len(X)
        bs = min(batch_size, n)
        xb_full = self._ws.buf("fit_x", (bs, X.shape[1]), self.dtype)
        yb_full = self._ws.buf("fit_y", (bs, y.shape[1]), self.dtype)
        identity_order = None if shuffle else np.arange(n, dtype=np.intp)
        cbs = [self.history, *callbacks]
        for cb in cbs:
            cb.on_train_begin(self)
        stop = False
        for epoch in range(epochs):
            # One span per epoch: coarse enough to stay cheap, and the
            # report renderer merges same-name siblings into "epoch ×N".
            with tracing.span("epoch") as ep:
                order = rng.permutation(n) if shuffle else identity_order
                total = 0.0
                n_batches = 0
                for lo in range(0, n, batch_size):
                    sel = order[lo : lo + batch_size]
                    m = len(sel)
                    xb = xb_full[:m]
                    yb = yb_full[:m]
                    np.take(X, sel, axis=0, out=xb)
                    np.take(y, sel, axis=0, out=yb)
                    total += self.train_batch(xb, yb)
                    n_batches += 1
                logs: dict[str, float] = {"loss": total / max(n_batches, 1)}
                if validation_data is not None:
                    logs["val_loss"] = self.evaluate(
                        *validation_data, batch_size=batch_size
                    )
                for cb in cbs:
                    stop = cb.on_epoch_end(self, epoch, logs) or stop
            # The span's net sys.getallocatedblocks() delta: flat after the
            # first (buffer-warming) epoch when the step is allocation-free.
            metrics.get_registry().gauge(
                "nn_alloc_blocks_per_epoch",
                help="net heap-block delta over the last training epoch",
                labels={"dtype": self.dtype.name},
            ).set(float(ep.alloc_blocks))
            if stop:
                break
        for cb in cbs:
            cb.on_train_end(self)
        return self.history

    def predict(self, X: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference in batches; single-output nets return a 1-D array.

        Streams each batch's (layer-owned) output into one preallocated
        result array, so the caller gets a fresh array without the old
        list-of-batches concatenation.
        """
        X = check_2d(X, "X", dtype=self.dtype)
        n = len(X)
        out: np.ndarray | None = None
        for lo in range(0, n, batch_size):
            ob = self.forward(X[lo : lo + batch_size], training=False)
            if out is None:
                out = np.empty((n, ob.shape[1]), dtype=ob.dtype)
            out[lo : lo + len(ob)] = ob
        return out.ravel() if out.shape[1] == 1 else out

    def evaluate(
        self, X: np.ndarray, y: np.ndarray, batch_size: int = 4096
    ) -> float:
        """Mean loss over a dataset (sample-weighted across batches)."""
        if self.loss is None:
            raise RuntimeError("call compile() before evaluate()")
        X = check_2d(X, "X", dtype=self.dtype)
        y = np.asarray(y)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        total = 0.0
        for lo in range(0, len(X), batch_size):
            xb = X[lo : lo + batch_size]
            yb = y[lo : lo + batch_size]
            total += self.loss.forward(self.forward(xb, training=False), yb) * len(xb)
        return total / len(X)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return (
            f"Sequential([{inner}], n_params={self.n_parameters}, "
            f"dtype={self.dtype.name})"
        )
