"""Test oracles: straight-line implementations that product code is
checked against, kept out of ``src/`` because nothing ships them."""

from tests.oracles.exact_tree import (
    ExactBuilder,
    ExactDecisionTree,
    ExactRandomForest,
    exact_runtime_model,
)
from tests.oracles.reference_sim import ReferenceSimulator

__all__ = [
    "ExactBuilder",
    "ExactDecisionTree",
    "ExactRandomForest",
    "ReferenceSimulator",
    "exact_runtime_model",
]
