"""k-nearest-neighbour regression.

One of the paper's baselines (after Brown et al., who applied kNN to queue
wait prediction).  Queries go through a scipy ``cKDTree``; features should
be scaled by the caller (the comparison harness feeds all models the same
log-transformed matrix).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.ml.base import Regressor
from repro.utils.validation import check_fitted

__all__ = ["KNeighborsRegressor"]

#: Cap on (rows × k) entries materialised per prediction block.  The
#: KD-tree query and the neighbour gathers allocate several arrays of that
#: shape; unchunked, a wide query (big trace × big k) peaks at hundreds of
#: MB.  ~1M entries keeps the transient footprint around 8 MB per array.
_QUERY_BLOCK_ENTRIES = 1 << 20


class KNeighborsRegressor(Regressor):
    """kNN with uniform or inverse-distance weights.

    Parameters
    ----------
    n_neighbors:
        k (clipped to the training size at query time).
    weights:
        ``"uniform"`` or ``"distance"`` (inverse distance; exact matches
        dominate their query).
    """

    def __init__(self, n_neighbors: int = 10, weights: str = "uniform") -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"weights must be 'uniform' or 'distance', got {weights!r}")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.tree_: cKDTree | None = None
        self._y: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsRegressor":
        X, y = self._validate_fit(X, y)
        self.tree_ = cKDTree(X)
        self._y = y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "tree_")
        X = self._validate_predict(X)
        k = min(self.n_neighbors, len(self._y))
        # Bounded row blocks: peak memory stays O(block × k) however large
        # the query matrix is.
        block = max(1, _QUERY_BLOCK_ENTRIES // k)
        out = np.empty(len(X))
        for a in range(0, len(X), block):
            out[a : a + block] = self._predict_block(X[a : a + block], k)
        return out

    def _predict_block(self, X: np.ndarray, k: int) -> np.ndarray:
        dist, idx = self.tree_.query(X, k=k)
        if k == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        neigh = self._y[idx]
        if self.weights == "uniform":
            return neigh.mean(axis=1)
        # Inverse-distance weighting; exact matches get all the mass.
        exact = dist <= 1e-12
        w = np.where(exact, 1.0, 1.0 / np.maximum(dist, 1e-12))
        has_exact = exact.any(axis=1)
        w[has_exact] = exact[has_exact].astype(np.float64)
        return (neigh * w).sum(axis=1) / w.sum(axis=1)
