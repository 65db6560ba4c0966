"""Gradient-boosted trees with the XGBoost objective.

The paper benchmarks against "an XGBoost regression model"; this is the
same algorithm family implemented directly: additive trees fitted to
first/second-order gradients of squared error, L2-regularised leaf weights
(−G/(H+λ)), shrinkage, and row/column subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.binning import BinnedMatrix
from repro.ml.tree import Tree, _Builder
from repro.obs import metrics
from repro.utils.rng import default_rng
from repro.utils.validation import check_2d, check_fitted

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(Regressor):
    """Second-order boosting for squared loss.

    Parameters
    ----------
    n_estimators, learning_rate:
        Boosting rounds and shrinkage.
    reg_lambda:
        L2 penalty on leaf weights (XGBoost λ).
    min_split_gain:
        Minimum gain to split (XGBoost γ).
    subsample, colsample:
        Per-round row and per-split column sampling fractions.

    Features are binned once per fit and the codes are shared by every
    round (see :mod:`repro.ml.binning`).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        reg_lambda: float = 1.0,
        min_split_gain: float = 0.0,
        subsample: float = 1.0,
        colsample: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < subsample <= 1.0 or not 0.0 < colsample <= 1.0:
            raise ValueError("subsample/colsample must be in (0, 1]")
        if reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_split_gain = min_split_gain
        self.subsample = subsample
        self.colsample = colsample
        self.seed = seed
        self.trees_: list[Tree] | None = None
        self.base_score_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = self._validate_fit(X, y)
        rng = default_rng(self.seed)
        n, n_features = X.shape
        # Bin once; every boosting round reuses the codes (row subsamples
        # are views into them, the bin edges never move).
        binned = BinnedMatrix.from_matrix(X)
        self.base_score_ = float(y.mean())
        pred = np.full(n, self.base_score_)
        self.trees_ = []
        max_feats = max(1, int(round(self.colsample * n_features)))
        for _ in range(self.n_estimators):
            # Squared loss: g = pred − y, h = 1.
            g = pred - y
            if self.subsample < 1.0:
                rows = rng.random(n) < self.subsample
                if not np.any(rows):
                    rows[rng.integers(0, n)] = True
            else:
                rows = slice(None)
            builder = _Builder(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_feats if self.colsample < 1.0 else None,
                lam=self.reg_lambda,
                min_gain=max(self.min_split_gain, 1e-12),
                rng=rng,
            )
            bm = binned if isinstance(rows, slice) else binned.take(rows)
            tree = builder.build(bm, g[rows])
            self.trees_.append(tree)
            pred += self.learning_rate * tree.predict(X)
        labels = {"model": "boosting"}
        reg = metrics.get_registry()
        reg.counter(
            "ml_tree_fits_total", help="ensemble fit calls", labels=labels
        ).inc()
        reg.counter(
            "ml_trees_fitted_total", help="individual trees grown", labels=labels
        ).inc(len(self.trees_))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "trees_")
        X = check_2d(X, "X")
        out = np.full(len(X), self.base_score_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """(n_estimators, n_samples) predictions after each round."""
        check_fitted(self, "trees_")
        X = check_2d(X, "X")
        out = np.full(len(X), self.base_score_)
        stages = np.empty((len(self.trees_), len(X)))
        for i, tree in enumerate(self.trees_):
            out = out + self.learning_rate * tree.predict(X)
            stages[i] = out
        return stages
