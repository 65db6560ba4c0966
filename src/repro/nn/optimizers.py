"""The Adam optimiser (Kingma & Ba), the one both of the paper's models use.

Parameters are updated in place, so layers keep their references across
steps.  The fused update runs over one flat arena spanning every
parameter — ufunc dispatch on each small bias vector would otherwise cost
more than the arithmetic itself — so a steady-state training step
allocates nothing.  The arena is rebuilt when the shapes or dtype of the
parameter list change; :meth:`Adam.reset` drops all state for a clean
restart on a recompiled net.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction (Kingma & Ba 2015)."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._arena: dict | None = None

    def reset(self) -> None:
        """Forget all state (moments, step count, scratch buffers)."""
        self._arena = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update; parameters change in place.

        Every parameter must share one dtype and every array must be
        C-contiguous, as :class:`~repro.nn.network.Sequential` guarantees.
        Elementwise ops on the concatenation are value-identical to a
        per-parameter update.
        """
        if len(params) != len(grads):
            raise ValueError("params and grads must be parallel lists")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"param/grad shape mismatch: {p.shape} vs {g.shape}")
        if len({p.dtype for p in params}) > 1:
            raise ValueError("all parameters must share one dtype")
        if not all(
            p.flags.c_contiguous and g.flags.c_contiguous
            for p, g in zip(params, grads)
        ):
            raise ValueError("parameters and gradients must be C-contiguous")
        sig = tuple((p.shape, p.dtype) for p in params)
        if self._arena is None or self._arena["sig"] != sig:
            self._build_arena(params, sig)
        a = self._arena
        gf, m, v = a["g"], a["m"], a["v"]
        tmp, tmp2 = a["tmp"], a["tmp2"]
        for (lo, hi), g in zip(a["spans"], grads):
            np.copyto(gf[lo:hi], g.reshape(-1))
        a["t"] += 1.0
        t = a["t"]
        m *= self.beta1
        np.multiply(gf, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(gf, gf, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        np.divide(m, 1.0 - self.beta1**t, out=tmp)   # m̂
        np.divide(v, 1.0 - self.beta2**t, out=tmp2)  # v̂
        np.sqrt(tmp2, out=tmp2)
        tmp2 += self.eps
        tmp /= tmp2
        tmp *= self.lr
        for (lo, hi), p in zip(a["spans"], params):
            p.reshape(-1)[...] -= tmp[lo:hi]

    def _build_arena(self, params, sig) -> None:
        dtype = params[0].dtype
        spans, off = [], 0
        for p in params:
            spans.append((off, off + p.size))
            off += p.size
        self._arena = {
            "sig": sig,
            "spans": spans,
            "m": np.zeros(off, dtype=dtype),
            "v": np.zeros(off, dtype=dtype),
            "g": np.empty(off, dtype=dtype),
            "tmp": np.empty(off, dtype=dtype),
            "tmp2": np.empty(off, dtype=dtype),
            "t": 0.0,
        }
