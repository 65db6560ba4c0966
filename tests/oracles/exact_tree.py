"""Exact tree builder: the split-search oracle for ``repro.ml``.

The product trees (:mod:`repro.ml.tree`) grow one level at a time over
quantile-binned features.  This is the straight-line search they are
checked against: an explicit node stack, and at each node one stable sort
plus prefix-sum arithmetic per candidate feature, scoring every gap
between adjacent distinct values.  When every feature has at most 256
distinct values, both searches consider the same thresholds and must grow
the same tree; past that, the product's quality is bounded against this
one.

:class:`ExactBuilder` overrides only ``build``; :class:`ExactDecisionTree`
and :class:`ExactRandomForest` override only ``fit``.  Parameters,
validation, seeding and prediction are the product's own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.core import runtime_model
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import _LEAF, DecisionTreeRegressor, Tree, _Builder
from repro.utils.rng import default_rng, spawn_seed_sequences

__all__ = [
    "ExactBuilder",
    "ExactDecisionTree",
    "ExactRandomForest",
    "exact_runtime_model",
]


def _best_split_feature(
    xf: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    min_leaf: int,
    lam: float,
) -> tuple[float, float]:
    """Best (gain, threshold) for one feature column.

    Works on (gradient, hessian) pairs; for the MSE criterion the caller
    passes ``g = −y`` and ``h = 1`` (the two objectives coincide up to
    constants with λ=0).  Gain is the second-order score improvement;
    −inf when no valid split exists.
    """
    order = np.argsort(xf, kind="stable")
    xs = xf[order]
    gs = np.cumsum(g[order])
    hs = np.cumsum(h[order])
    n = len(xs)
    G, H = gs[-1], hs[-1]
    # Candidate split after position k (1-based left count).
    k = np.arange(1, n)
    valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & ((n - k) >= min_leaf)
    if not np.any(valid):
        return -np.inf, 0.0
    Gl = gs[:-1]
    Hl = hs[:-1]
    gain = Gl**2 / (Hl + lam) + (G - Gl) ** 2 / (H - Hl + lam) - G**2 / (H + lam)
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    thr = 0.5 * (xs[best] + xs[best + 1])
    # Guard against midpoint rounding onto the right value for adjacent
    # floats: route on <=, so ensure thr < xs[best+1].
    if thr >= xs[best + 1]:
        thr = xs[best]
    return float(gain[best]), thr


class _NodeArrays:
    """Append-only flat node storage for the depth-first builder."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_samples: list[int] = []

    def new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        self.n_samples.append(0)
        return len(self.feature) - 1

    def freeze(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
        )


class ExactBuilder(_Builder):
    """Grows one tree on raw features and (g, h) pairs by sorted search."""

    def _sample_features(self, n_features: int) -> np.ndarray:
        if self.max_features is not None and self.max_features < n_features:
            return self.rng.choice(n_features, self.max_features, replace=False)
        return np.arange(n_features)

    def build(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> Tree:
        n_features = X.shape[1]
        nodes = _NodeArrays()
        root = nodes.new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(len(X)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            Gi = g[idx]
            Hi = h[idx]
            nodes.n_samples[node] = len(idx)
            nodes.value[node] = float(-Gi.sum() / (Hi.sum() + self.lam))
            if depth >= self.max_depth or len(idx) < self.min_samples_split:
                continue
            feats = self._sample_features(n_features)
            best_gain, best_f, best_thr = self.min_gain, -1, 0.0
            Xi = X[idx]
            for f in feats:
                gain, thr = _best_split_feature(
                    Xi[:, f], Gi, Hi, self.min_samples_leaf, self.lam
                )
                if gain > best_gain:
                    best_gain, best_f, best_thr = gain, int(f), thr
            if best_f < 0:
                continue
            mask = Xi[:, best_f] <= best_thr
            li, ri = idx[mask], idx[~mask]
            if len(li) < self.min_samples_leaf or len(ri) < self.min_samples_leaf:
                continue
            nodes.feature[node] = best_f
            nodes.threshold[node] = best_thr
            ln = nodes.new_node()
            rn = nodes.new_node()
            nodes.left[node] = ln
            nodes.right[node] = rn
            stack.append((ln, li, depth + 1))
            stack.append((rn, ri, depth + 1))
        return nodes.freeze()


class ExactDecisionTree(DecisionTreeRegressor):
    """:class:`DecisionTreeRegressor` grown by the exact sorted search."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExactDecisionTree":
        X, y = self._validate_fit(X, y)
        builder = ExactBuilder(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            lam=0.0,
            min_gain=1e-12,
            rng=default_rng(self.seed),
        )
        self.tree_ = builder.build(X, -y, np.ones_like(y))
        return self


class ExactRandomForest(RandomForestRegressor):
    """:class:`RandomForestRegressor` of exact trees, grown serially.

    Per-tree seeds and bootstrap draws follow the product forest, so the
    two ensembles differ only in their split search.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExactRandomForest":
        X, y = self._validate_fit(X, y)
        proto = DecisionTreeRegressor(max_features=self.max_features)
        mf = proto._resolve_max_features(X.shape[1])
        n = len(y)
        self.trees_ = []
        for seed_state in spawn_seed_sequences(self.seed, self.n_estimators):
            rng = default_rng(seed_state)
            idx = rng.integers(0, n, size=n) if self.bootstrap else slice(None)
            builder = ExactBuilder(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=mf,
                lam=0.0,
                min_gain=1e-12,
                rng=rng,
            )
            yb = y[idx]
            self.trees_.append(builder.build(X[idx], -yb, np.ones_like(yb)))
        return self


@contextmanager
def exact_runtime_model() -> Iterator[None]:
    """Grow :class:`RuntimePredictor` forests with the exact oracle while
    the context is active."""
    with mock.patch.object(
        runtime_model, "RandomForestRegressor", ExactRandomForest
    ):
        yield
