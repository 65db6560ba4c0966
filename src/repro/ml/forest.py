"""Random forest regression.

Bagged CART trees with per-node feature subsampling — the paper's baseline
("a random forest was used as a benchmark … to reduce overfitting and have
less variance") and the engine of the runtime-prediction feature model.
Trees train independently, each from its own seed spawned from one root
seed.

The feature matrix is quantile-binned to uint8 codes exactly once per
``fit`` and the resulting :class:`~repro.ml.binning.BinnedMatrix` is
shared by every tree — bootstrap resamples are row subsets of the codes,
so the binning cost is amortised across the whole ensemble.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.binning import BinnedMatrix
from repro.ml.tree import DecisionTreeRegressor, Tree, _Builder
from repro.obs import metrics
from repro.utils.rng import default_rng, spawn_seed_sequences
from repro.utils.validation import check_2d, check_fitted

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(Regressor):
    """Bagging ensemble of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Per-split feature subset (default ``1/3`` of features, the
        regression convention).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 14,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: int | float | str | None = 1.0 / 3.0,
        bootstrap: bool = True,
        seed: int | None = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees_: list[Tree] | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = self._validate_fit(X, y)
        binned = BinnedMatrix.from_matrix(X)
        proto = DecisionTreeRegressor(max_features=self.max_features)
        mf = proto._resolve_max_features(X.shape[1])
        n = len(y)
        self.trees_ = []
        for seed_state in spawn_seed_sequences(self.seed, self.n_estimators):
            rng = default_rng(seed_state)
            bm, yb = binned, y
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                bm, yb = binned.take(idx), y[idx]
            builder = _Builder(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=mf,
                lam=0.0,
                min_gain=1e-12,
                rng=rng,
            )
            self.trees_.append(builder.build(bm, -yb))
        labels = {"model": "forest"}
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
        out = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            out += tree.predict(X)
        out /= len(self.trees_)
        return out

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation — a cheap uncertainty signal."""
        check_fitted(self, "trees_")
        X = check_2d(X, "X")
        preds = np.stack([tree.predict(X) for tree in self.trees_])
        return preds.std(axis=0)

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Split-count importance normalised to sum 1."""
        check_fitted(self, "trees_")
        counts = np.zeros(n_features, dtype=np.float64)
        for tree in self.trees_:
            used = tree.feature[tree.feature >= 0]
            np.add.at(counts, used, tree.n_samples[tree.feature >= 0])
        total = counts.sum()
        return counts / total if total > 0 else counts
