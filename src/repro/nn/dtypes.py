"""Network compute dtype and reusable scratch buffers.

The framework computes in **float32**: the two production nets
(quick-start classifier, ELU regressor) spend their time in BLAS matmuls
and elementwise ufuncs, and single precision roughly halves both the
memory traffic and the FLOP cost on every axis that matters here.
**float64 is the reference path**, reached only by asking for it
explicitly (``Sequential(dtype="float64")`` or ``net.astype("float64")``),
as gradient checking and the float32-vs-float64 parity tests do.

:class:`Workspace` is the allocation-free building block: a small cache of
scratch arrays keyed by ``(tag, shape, dtype)``.  Layers, losses and the
training loop request their forward/backward buffers through it, so the
steady state of ``fit`` re-uses the same memory batch after batch and the
per-epoch heap-block delta (visible on the tracing spans) stays flat after
the first epoch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_NN_DTYPE", "NN_DTYPES", "resolve_nn_dtype", "Workspace"]

NN_DTYPES = ("float32", "float64")
DEFAULT_NN_DTYPE = "float32"


def resolve_nn_dtype(dtype: str | np.dtype | type | None = None) -> np.dtype:
    """Validate a compute dtype; ``None`` means the float32 default.

    Only float32 and float64 are valid.
    """
    if dtype is None:
        dtype = DEFAULT_NN_DTYPE
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"invalid nn dtype {dtype!r}") from exc
    if dt.name not in NN_DTYPES:
        raise ValueError(
            f"nn dtype must be one of {NN_DTYPES}, got {dt.name!r}"
        )
    return dt


class Workspace:
    """Scratch arrays allocated once and reused, keyed by (tag, shape, dtype).

    Buffers come back *uninitialised* (``np.empty``) — every consumer
    overwrites them fully via ``out=`` ufunc calls.  The cache is bounded:
    once ``max_entries`` distinct keys accumulate (e.g. a net driven with
    many unique batch shapes) it is cleared wholesale, trading a one-off
    re-allocation for a hard memory cap.  Correctness never depends on a
    buffer surviving between calls.
    """

    __slots__ = ("_bufs", "max_entries")

    def __init__(self, max_entries: int = 32) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}
        self.max_entries = max_entries

    def buf(
        self, tag: str, shape: tuple[int, ...], dtype: np.dtype | type
    ) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        arr = self._bufs.get(key)
        if arr is None:
            if len(self._bufs) >= self.max_entries:
                self._bufs.clear()
            arr = self._bufs[key] = np.empty(shape, dtype=key[2])
        return arr

    def clear(self) -> None:
        """Drop every cached buffer (e.g. after a dtype switch)."""
        self._bufs.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held — a debugging/telemetry aid."""
        return sum(a.nbytes for a in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)
