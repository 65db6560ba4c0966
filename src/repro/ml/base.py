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

    #: Column count seen by ``fit``.  ``None`` before it, and on models
    #: pickled before the attribute existed, which skip the check.
    n_features_in_: int | None = None

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
        self.n_features_in_ = X.shape[1]
        return X, y

    def _validate_predict(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a 2-D float64 matrix with the fitted column count."""
        X = check_2d(X, "X")
        if self.n_features_in_ is not None and X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} columns but {type(self).__name__} "
                f"was fitted on {self.n_features_in_}"
            )
        return X

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on (X, y)."""
        y = check_1d(y, "y")
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot
