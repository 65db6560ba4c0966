"""Weight initialisers.

He normal initialisation for the hidden ELU layers (the paper's networks
use ELU throughout), Glorot uniform for the single-unit output layers.
Checkpoints store each dense layer's ``init`` name, so both stay
reachable by name.  Each initialiser takes ``(fan_in, fan_out, rng,
dtype=...)`` and returns a ``(fan_in, fan_out)`` matrix.  Draws always happen in float64 and are
cast afterwards, so a float32 net starts from (the rounded image of) the
same weights as the float64 reference for a given seed, and the RNG
stream is dtype-independent.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["he_normal", "glorot_uniform", "get_initializer"]

Initializer = Callable[..., np.ndarray]


def he_normal(
    fan_in: int, fan_out: int, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """N(0, 2/fan_in) — standard for ReLU/ELU stacks."""
    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
    return w.astype(dtype, copy=False)


def glorot_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """U(±√(6/(fan_in+fan_out)))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return w.astype(dtype, copy=False)


_REGISTRY: dict[str, Initializer] = {
    "he_normal": he_normal,
    "glorot_uniform": glorot_uniform,
}


def get_initializer(name: str) -> Initializer:
    """Look up an initialiser by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown initializer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
