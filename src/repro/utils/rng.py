"""Deterministic random-number management.

Every stochastic component in the library (workload generation, SMOTE,
network initialisation, forest bootstraps, HPO samplers) accepts either an
integer seed or a :class:`numpy.random.Generator`.  This module centralises
the conversion and provides reproducible *spawning* of independent streams
(one per forest tree), following the ``SeedSequence`` discipline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng", "spawn_seed_sequences"]


def default_rng(
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, a
        ``SeedSequence`` (e.g. a spawned child), or an existing ``Generator`` which is passed through
        unchanged (so callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_sequences(
    seed: int | None, n: int
) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child ``SeedSequence`` states from one seed.

    Each random-forest tree materialises its generator from one child with
    ``default_rng(child)``, so every tree draws from its own stream.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return list(np.random.SeedSequence(seed).spawn(n))
