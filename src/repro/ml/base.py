"""Shared estimator plumbing."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import (
    check_1d,
    check_2d,
    check_consistent_length,
    check_finite,
)

__all__ = ["Regressor"]


class Regressor:
    """Minimal regressor base: validation helpers and R² scoring."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor":
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _validate_fit(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = check_2d(X, "X")
        y = check_1d(y, "y")
        check_consistent_length(X, y)
        check_finite(X, "X")
        check_finite(y, "y")
        return X, y

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on (X, y)."""
        y = check_1d(y, "y")
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot
