"""Scalar tree walk: the inference oracle for ``repro.ml``.

The product descends every tree of an ensemble at once, level by level,
over one stacked node table (:class:`repro.ml.tree.TreeStack`).  This is
the straight-line walk it is checked against: one row down one tree at a
time, a plain Python loop over ``feature``/``threshold``/``left``/
``right``, and the trees summed in order, one scalar addition after the
other.  A row goes left when ``x[feature] <= threshold``, so NaN goes
right.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.tree import _LEAF, Tree

__all__ = ["walk_leaf", "walk_forest", "walk_boosting"]


def walk_leaf(tree: Tree, x: np.ndarray) -> int:
    """Index of the leaf that row ``x`` reaches."""
    node = 0
    while tree.feature[node] != _LEAF:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return node


def walk_forest(trees: Sequence[Tree], X: np.ndarray) -> np.ndarray:
    """Per row, ``(0.0 + v_0 + v_1 + …) / n_trees`` over the leaf values."""
    out = np.empty(len(X))
    for i, x in enumerate(X):
        total = 0.0
        for tree in trees:
            total += tree.value[walk_leaf(tree, x)]
        out[i] = total / len(trees)
    return out


def walk_boosting(
    trees: Sequence[Tree], learning_rate: float, base: float, X: np.ndarray
) -> np.ndarray:
    """``(n_trees, n_rows)`` running sums ``base + lr·v_0 + … + lr·v_k``."""
    out = np.empty((len(trees), len(X)))
    for i, x in enumerate(X):
        total = base
        for k, tree in enumerate(trees):
            total = total + learning_rate * tree.value[walk_leaf(tree, x)]
            out[k, i] = total
    return out
