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

Prediction descends one row per **threshold cell** through every tree at
once.  Two rows that fall on the same side of every threshold of every
tree reach the same leaf in every tree, so
:meth:`RandomForestRegressor.predict` keys each row by its per-feature
rank among the forest's sorted distinct thresholds and sends one
representative row per distinct key down the forest's stacked node table
(:class:`~repro.ml.tree.TreeStack`): all ``n_trees × n_cells`` lanes
move one level per step, and the leaf values are summed in tree order
before the sums are scattered back.  Request-level inputs such as the
runtime model's (a few dozen CPU/memory/timelimit values) collapse
thousands of rows into hundreds of cells; continuous inputs leave every
row its own cell and cost one ``searchsorted`` per feature more.  The
output is bitwise the plain tree average either way.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.binning import BinnedMatrix
from repro.ml.tree import DecisionTreeRegressor, Tree, TreeStack, _Builder
from repro.obs import metrics
from repro.utils.rng import default_rng, spawn_seed_sequences
from repro.utils.validation import check_fitted

__all__ = ["RandomForestRegressor"]

_INT64_MAX = np.iinfo(np.int64).max


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

    #: ``(trees_, stacked node table, per-feature sorted distinct
    #: thresholds)``, derived from whichever ``trees_`` list is current on
    #: first use.
    _inference: tuple[list[Tree], TreeStack, list[np.ndarray]] | None = None

    def __getstate__(self) -> dict:
        # The inference tables are derived from ``trees_``; never persist them.
        state = self.__dict__.copy()
        state.pop("_inference", None)
        return state

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
        """Mean of the trees' predictions, one descent per threshold cell."""
        check_fitted(self, "trees_")
        X = self._validate_predict(X)
        first, cell = self._cells(X)
        out = self._tables()[0].accumulate(X[first], base=0.0)
        out /= len(self.trees_)
        return out[cell]

    def _tables(self) -> tuple[TreeStack, list[np.ndarray]]:
        """The stacked node table and the per-feature sorted distinct
        split thresholds of the current ``trees_``."""
        if self._inference is None or self._inference[0] is not self.trees_:
            feature = np.concatenate([t.feature for t in self.trees_])
            threshold = np.concatenate([t.threshold for t in self.trees_])
            edges = [
                np.unique(threshold[feature == f])
                for f in range(int(feature.max()) + 1)
            ]
            self._inference = (self.trees_, TreeStack(self.trees_), edges)
        return self._inference[1:]

    def _cells(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First row of each threshold cell of ``X``, and each row's cell.

        A value's rank ``searchsorted(thresholds, x, "left")`` counts the
        thresholds strictly below it, so equal ranks mean equal ``x <= t``
        outcomes for every threshold ``t`` (NaN ranks last and goes right,
        as in :class:`TreeStack`).  The per-feature ranks fold into one
        int64 key; the key is rank-compressed first whenever the next
        multiply could overflow.
        """
        key = np.zeros(len(X), dtype=np.int64)
        size = 1  # exclusive upper bound of ``key``
        for f, edges in enumerate(self._tables()[1]):
            if not len(edges):
                continue
            radix = len(edges) + 1
            if size * radix > _INT64_MAX:
                _, key = np.unique(key, return_inverse=True)
                size = int(key.max()) + 1
            key = key * radix + np.searchsorted(edges, X[:, f], side="left")
            size *= radix
        _, first, cell = np.unique(key, return_index=True, return_inverse=True)
        return first, cell

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Split-count importance normalised to sum 1."""
        check_fitted(self, "trees_")
        counts = np.zeros(n_features, dtype=np.float64)
        for tree in self.trees_:
            used = tree.feature[tree.feature >= 0]
            np.add.at(counts, used, tree.n_samples[tree.feature >= 0])
        total = counts.sum()
        return counts / total if total > 0 else counts
