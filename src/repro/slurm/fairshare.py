"""Fair-share usage tracking with exponential decay.

Anvil runs Slurm's multifactor plugin with a fair-share policy — the paper
singles this out as what forces user-history features into the model.  This
tracker reproduces Slurm's classic behaviour: each user's accumulated usage
(CPU-seconds) decays with a configurable half-life, and the fair-share
factor is ``2^(-(U/S))`` where ``U`` is the user's share of decayed cluster
usage and ``S`` their share of allocation, so heavy recent users sink in
priority.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FairShareTracker"]


class FairShareTracker:
    """Per-user decayed usage and fair-share factors.

    Parameters
    ----------
    n_users:
        Size of the (dense) user id space.
    half_life_s:
        Usage half-life in seconds (Slurm ``PriorityDecayHalfLife``;
        default two weeks).
    shares:
        Per-user allocation shares; default equal shares.
    """

    def __init__(
        self,
        n_users: int,
        half_life_s: float = 14 * 24 * 3600.0,
        shares: np.ndarray | None = None,
    ) -> None:
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        if half_life_s <= 0:
            raise ValueError(f"half_life_s must be positive, got {half_life_s}")
        self.n_users = n_users
        self.half_life_s = half_life_s
        if shares is None:
            shares = np.ones(n_users, dtype=np.float64)
        shares = np.asarray(shares, dtype=np.float64)
        if shares.shape != (n_users,) or np.any(shares <= 0):
            raise ValueError("shares must be positive and one per user")
        self._norm_shares = shares / shares.sum()
        self._usage = np.zeros(n_users, dtype=np.float64)
        self._last_decay = 0.0
        #: Bumped on every usage charge.  Decay alone does not bump it:
        #: the per-user factor *vector* still has to be recomputed at a
        #: new time (decay rescales usage), but callers caching factors
        #: keyed ``(t, version)`` are guaranteed the cache is exact.
        self.version = 0

    # ------------------------------------------------------------------ #
    def _decay_to(self, t: float) -> None:
        """Apply exponential decay of all usage up to time ``t``."""
        dt = t - self._last_decay
        if dt < 0:
            raise ValueError(
                f"time moved backwards: {t} < {self._last_decay}"
            )
        if dt > 0:
            self._usage *= 0.5 ** (dt / self.half_life_s)
            self._last_decay = t

    def add_usage(self, user_id: int, cpu_seconds: float, t: float) -> None:
        """Charge ``cpu_seconds`` of usage to ``user_id`` at time ``t``."""
        if cpu_seconds < 0:
            raise ValueError("cpu_seconds must be non-negative")
        self._decay_to(t)
        self._usage[user_id] += cpu_seconds
        self.version += 1

    def usage(self, t: float | None = None) -> np.ndarray:
        """Decayed usage vector (optionally decayed to time ``t`` first)."""
        if t is not None:
            self._decay_to(t)
        return self._usage.copy()

    def factors(self, user_ids: np.ndarray, t: float) -> np.ndarray:
        """Fair-share factor in (0, 1] for each given user at time ``t``.

        Uses the classic formula ``F = 2^(-U_norm / S_norm)`` with usage
        normalised by total decayed usage.  With zero cluster usage every
        user gets factor 1.
        """
        self._decay_to(t)
        total = self._usage.sum()
        if total <= 0:
            return np.ones(len(user_ids), dtype=np.float64)
        u_norm = self._usage[user_ids] / total
        s_norm = self._norm_shares[user_ids]
        return np.power(2.0, -(u_norm / s_norm))
