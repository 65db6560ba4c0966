"""The trial sampler.

:class:`TPESampler` is a compact tree-structured-Parzen-estimator in the
spirit of Optuna's default.  Until ``n_startup`` trials have completed it
draws uniformly in the unit interval.  After that, completed trials are
split into a "good" quantile and the rest, one-dimensional Parzen
(Gaussian-kernel) densities ``l(x)`` / ``g(x)`` are fitted per parameter
in unit coordinates, a set of candidates is drawn from ``l``, and the
candidate maximising ``l/g`` wins.
"""

from __future__ import annotations

import numpy as np

from repro.hpo.space import Param
from repro.utils.rng import default_rng

__all__ = ["TPESampler"]


class TPESampler:
    """Parzen-estimator sampler with a uniform random startup phase.

    Parameters
    ----------
    n_startup:
        Completed trials required before TPE kicks in (random until then).
    gamma:
        Fraction of trials labelled "good".
    n_candidates:
        Candidates drawn from ``l(x)`` per suggestion.
    bandwidth:
        Gaussian kernel width in unit coordinates.
    """

    def __init__(
        self,
        seed: int | np.random.Generator | None = None,
        n_startup: int = 10,
        gamma: float = 0.25,
        n_candidates: int = 24,
        bandwidth: float = 0.12,
    ) -> None:
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if n_startup < 1 or n_candidates < 1:
            raise ValueError("n_startup and n_candidates must be >= 1")
        self.rng = default_rng(seed)
        self.n_startup = n_startup
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.bandwidth = bandwidth

    def sample_unit(
        self, param: Param, history_units: np.ndarray, history_values: np.ndarray
    ) -> float:
        """Return the next point in [0, 1) for this parameter.

        ``history_units`` / ``history_values`` are the unit coordinates and
        objective values of completed trials that include the parameter.
        """
        n = len(history_values)
        if n < self.n_startup:
            return float(self.rng.random())
        order = np.argsort(history_values)
        n_good = max(1, int(np.ceil(self.gamma * n)))
        good = history_units[order[:n_good]]
        bad = history_units[order[n_good:]]
        if len(bad) == 0:
            bad = good
        # Candidates from l(x): pick a good centre, jitter, reflect into [0,1].
        centres = self.rng.choice(good, size=self.n_candidates)
        cands = centres + self.rng.normal(0.0, self.bandwidth, self.n_candidates)
        cands = np.abs(cands)  # reflect at 0
        cands = 1.0 - np.abs(1.0 - cands)  # reflect at 1
        cands = np.clip(cands, 0.0, 1.0 - 1e-12)
        score = self._log_parzen(cands, good) - self._log_parzen(cands, bad)
        return float(cands[int(np.argmax(score))])

    def _log_parzen(self, x: np.ndarray, centres: np.ndarray) -> np.ndarray:
        """log of a uniform-weight Gaussian mixture density at ``x``."""
        d = (x[:, None] - centres[None, :]) / self.bandwidth
        log_k = -0.5 * d * d
        m = log_k.max(axis=1, keepdims=True)
        return (m.ravel() + np.log(np.exp(log_k - m).sum(axis=1))) - np.log(
            len(centres) * self.bandwidth * np.sqrt(2 * np.pi)
        )
