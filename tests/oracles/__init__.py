"""Test oracles: straight-line implementations that product code is
checked against, kept out of ``src/`` because nothing ships them."""

from tests.oracles.exact_tree import (
    ExactBuilder,
    ExactDecisionTree,
    ExactRandomForest,
    exact_runtime_model,
)
from tests.oracles.interval_tree import (
    ChunkedIntervalForest,
    IntervalTree,
    forest_snapshots,
    naive_stab_batch,
)
from tests.oracles.reference_sim import ReferenceSimulator
from tests.oracles.tree_walk import walk_boosting, walk_forest, walk_leaf

__all__ = [
    "ChunkedIntervalForest",
    "ExactBuilder",
    "ExactDecisionTree",
    "ExactRandomForest",
    "IntervalTree",
    "ReferenceSimulator",
    "exact_runtime_model",
    "forest_snapshots",
    "naive_stab_batch",
    "walk_boosting",
    "walk_forest",
    "walk_leaf",
]
