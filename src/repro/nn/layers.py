"""Network layers.

Every layer implements ``forward(x, training)`` and ``backward(grad)``
(which must be called after the corresponding forward, as layers cache the
activations backprop needs), and exposes parameter / gradient arrays that
the optimiser updates in place.

Layers carry the network compute dtype (float32, float64 reference
— see :mod:`repro.nn.dtypes`) and own a :class:`~repro.nn.dtypes.Workspace`
of forward/backward buffers allocated once per (batch shape, dtype) and
reused across batches, so steady-state training allocates nothing.  A
layer's forward output is therefore only valid until its *next* forward —
callers that keep results must copy (``Sequential.predict`` does).
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ActivationFn, Identity, get_activation
from repro.nn.dtypes import Workspace, resolve_nn_dtype
from repro.nn.initializers import get_initializer
from repro.utils.rng import default_rng

__all__ = ["Layer", "Dense", "Activation", "Dropout", "BatchNorm1d"]


class Layer:
    """Base layer: stateless pass-through with no parameters."""

    #: names of ndarray attributes cast when the dtype changes
    _array_attrs: tuple[str, ...] = ()
    #: names of cached-activation attributes invalidated on a dtype change
    _cache_attrs: tuple[str, ...] = ()

    def __init__(self, dtype: str | np.dtype | None = None) -> None:
        self.dtype = resolve_nn_dtype(dtype)
        self._ws = Workspace()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def set_dtype(self, dtype: str | np.dtype) -> None:
        """Switch the layer to ``dtype``, casting params and dropping buffers."""
        dtype = resolve_nn_dtype(dtype)
        if dtype == self.dtype:
            return
        self.dtype = dtype
        for name in self._array_attrs:
            setattr(self, name, getattr(self, name).astype(dtype))
        for name in self._cache_attrs:
            setattr(self, name, None)
        self._ws.clear()

    @property
    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (updated in place by the optimiser)."""
        return []

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradient arrays parallel to :attr:`params`."""
        return []

    def config(self) -> dict:
        """Serialisable constructor description (see serialize module)."""
        return {}

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params)


class Dense(Layer):
    """Fully connected layer ``y = xW + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    init:
        Weight initialiser name (see :mod:`repro.nn.initializers`).
    seed:
        Seed or generator for the initialiser.
    dtype:
        Parameter/compute dtype; ``None`` means float32.  A layer added
        to a :class:`~repro.nn.network.Sequential` takes the network's.
    """

    _array_attrs = ("W", "b", "dW", "db")
    _cache_attrs = ("_x",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "he_normal",
        seed: int | np.random.Generator | None = None,
        dtype: str | np.dtype | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer widths must be positive")
        super().__init__(dtype)
        rng = default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.init = init
        self.W = get_initializer(init)(in_features, out_features, rng, dtype=self.dtype)
        self.b = np.zeros(out_features, dtype=self.dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense({self.in_features}->{self.out_features}) got input "
                f"shape {x.shape}"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        self._x = x if training else None
        out = self._ws.buf("fwd", (x.shape[0], self.out_features), self.dtype)
        np.matmul(x, self.W, out=out)
        out += self.b
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() before forward(training=True)")
        if grad.dtype != self.dtype:
            grad = grad.astype(self.dtype)
        # In-place writes keep optimiser references valid.
        np.matmul(self._x.T, grad, out=self.dW)
        np.sum(grad, axis=0, out=self.db)
        gin = self._ws.buf("bwd", self._x.shape, self.dtype)
        np.matmul(grad, self.W.T, out=gin)
        return gin

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def config(self) -> dict:
        return {
            "kind": "dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "init": self.init,
        }


class Activation(Layer):
    """Wraps an :class:`~repro.nn.activations.ActivationFn` as a layer."""

    _cache_attrs = ("_x", "_out")

    def __init__(
        self,
        fn: ActivationFn | str,
        dtype: str | np.dtype | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dtype)
        self.fn = get_activation(fn, **kwargs) if isinstance(fn, str) else fn
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if isinstance(self.fn, Identity):
            out = x
        else:
            out = self.fn.forward(
                x, out=self._ws.buf("fwd", x.shape, x.dtype), ws=self._ws
            )
        if training:
            self._x, self._out = x, out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() before forward(training=True)")
        # dst=grad: the derivative multiplies into the incoming gradient in
        # place (safe — every ActivationFn reads grad only in its final op).
        return self.fn.backward(grad, self._x, self._out, dst=grad, ws=self._ws)

    def config(self) -> dict:
        return {"kind": "activation", "name": self.fn.name, **self.fn.config()}


class Dropout(Layer):
    """Inverted dropout: active only in training, identity at inference."""

    _cache_attrs = ("_mask",)

    def __init__(
        self,
        p: float,
        seed: int | np.random.Generator | None = None,
        dtype: str | np.dtype | None = None,
    ) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        super().__init__(dtype)
        self.p = p
        self._rng = default_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        # Threshold raw generator words at 16-bit resolution: producing
        # bits is ~4x cheaper than converting them to unit-interval
        # floats, and quantising ``keep`` to 1/65536 (≤8e-6 absolute)
        # is far below anything a dropout rate resolves.  The draw is
        # precision-independent, so float32 and float64 policies consume
        # the identical mask sequence.
        nel = x.size
        words = self._rng.bit_generator.random_raw((nel + 3) // 4)
        u16 = words.view(np.uint16)[:nel].reshape(x.shape)
        kept = self._ws.buf("kept", x.shape, np.bool_)
        np.less(u16, int(round(keep * 65536.0)), out=kept)
        mask = self._ws.buf("mask", x.shape, x.dtype)
        # A dtype-matched scalar keeps the bool->float cast on the fast
        # ufunc loop (a python float promotes the whole op to float64).
        np.multiply(kept, mask.dtype.type(1.0 / keep), out=mask)
        self._mask = mask
        # The output cannot alias x: the upstream layer's cached forward
        # buffer must stay intact for its own backward pass.
        out = self._ws.buf("fwd", x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        grad *= self._mask
        return grad

    def config(self) -> dict:
        return {"kind": "dropout", "p": self.p}


class BatchNorm1d(Layer):
    """Batch normalisation over the batch axis (Ioffe & Szegedy 2015).

    The paper tested this on the regressor and rejected it (wide-range
    targets plus huge hidden layers made it impractical); it is kept for
    the batch-norm ablation, so unlike the hot layers above it still
    allocates its intermediates per batch.
    """

    _array_attrs = (
        "gamma", "beta", "dgamma", "dbeta", "running_mean", "running_var",
    )
    _cache_attrs = ("_cache",)

    def __init__(
        self,
        n_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        dtype: str | np.dtype | None = None,
    ):
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        super().__init__(dtype)
        self.n_features = n_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(n_features, dtype=self.dtype)
        self.beta = np.zeros(n_features, dtype=self.dtype)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(n_features, dtype=self.dtype)
        self.running_var = np.ones(n_features, dtype=self.dtype)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x - mean) * inv_std
            self._cache = (x_hat, inv_std)
            return self.gamma * x_hat + self.beta
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * (x - self.running_mean) * inv_std + self.beta

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_hat, inv_std = self._cache
        n = grad.shape[0]
        np.sum(grad * x_hat, axis=0, out=self.dgamma)
        np.sum(grad, axis=0, out=self.dbeta)
        # Standard batchnorm backward in terms of normalised activations.
        dxhat = grad * self.gamma
        return (
            inv_std
            / n
            * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
        )

    @property
    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.dgamma, self.dbeta]

    def config(self) -> dict:
        return {
            "kind": "batchnorm1d",
            "n_features": self.n_features,
            "momentum": self.momentum,
            "eps": self.eps,
        }

    @property
    def state_arrays(self) -> list[np.ndarray]:
        """Non-trainable state persisted by the serialiser."""
        return [self.running_mean, self.running_var]
