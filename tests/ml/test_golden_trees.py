"""Golden tree-output lock.

Three fixed-seed tree models are fitted on one fixed matrix and the
SHA-256 of their prediction bytes is compared against checked-in digests.
The matrix mixes low-cardinality integer columns (one bin per value) with
continuous columns past the 256-bin limit (quantile bins), and the models
between them reach every branch of the histogram builder:

- ``tree`` — full-width scan with sibling histogram subtraction;
- ``forest`` — bootstrap rows and per-node feature subsampling
  (``sampled_histograms`` and the masked split scan);
- ``boosting`` — row ``subsample`` and ``colsample`` below 1 with λ > 0.

Each model is fitted a second time with the per-level histogram budget
forced tiny, so the block-wise fallback for huge levels runs too.  Any
change to split search, leaf values or prediction that moves a single
output bit fails here.

If a deliberate change to tree growing lands, regenerate the digests with::

    PYTHONPATH=src:. python -c "
    from tests.ml.test_golden_trees import CASES, digest
    for name in CASES:
        print(name, digest(name, small_budget=False), digest(name, small_budget=True))"
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.ml import tree as tree_module
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

CASES = {
    "tree": lambda: DecisionTreeRegressor(max_depth=9, min_samples_leaf=2, seed=0),
    "forest": lambda: RandomForestRegressor(
        n_estimators=6, max_depth=9, max_features=0.5, seed=3
    ),
    "boosting": lambda: GradientBoostingRegressor(
        n_estimators=15,
        max_depth=4,
        reg_lambda=1.5,
        subsample=0.7,
        colsample=0.5,
        seed=5,
    ),
}

#: (default budget, block-wise fallback) digests per model.
GOLDEN_SHA256 = {
    "tree": (
        "75baf6648355f578d2353360935a2dd4b052441035e4987ec63b64d8bc0fe827",
        "59932bc05cd21cfe1b7334ffac78734be91e05aa7edd69816096f1995078c274",
    ),
    "forest": (
        "22be489f54f88d77e8f303447cefe245d34b0b16059aa0fa1edc8c945e1ed022",
        "22be489f54f88d77e8f303447cefe245d34b0b16059aa0fa1edc8c945e1ed022",
    ),
    "boosting": (
        "471d76a157463938b6c016bfdf4e95c4e08076d32995d4fe686ca2f83593a3ec",
        "471d76a157463938b6c016bfdf4e95c4e08076d32995d4fe686ca2f83593a3ec",
    ),
}


def _matrix() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20240917)
    n = 1500
    # Arithmetic on uniform draws only: no transcendental ufuncs, whose
    # last bits may vary with the CPU's SIMD paths.
    u = rng.uniform(size=(n, 3))
    X = np.column_stack(
        [
            rng.integers(0, 4, size=n),  # partition-like code
            rng.integers(1, 65, size=n),  # node-count-like
            1000.0 * u[:, 0] ** 3,  # skewed continuous, > 256 values
            u[:, 1] - 0.5,
            rng.integers(0, 300, size=n),  # just past the bin limit
            u[:, 2].round(2),  # ~100 values, with ties
        ]
    ).astype(np.float64)
    y = (
        np.sqrt(X[:, 2]) * (X[:, 0] + 1)
        + 0.02 * X[:, 1]
        + 4.0 * np.abs(X[:, 3])
        - 0.01 * X[:, 4] * X[:, 5]
        + 0.1 * rng.uniform(-1.0, 1.0, size=n)
    )
    # Query rows: the training matrix plus fresh off-grid draws.
    Q = np.vstack([X, X[:300] + rng.uniform(-0.5, 0.5, size=(300, X.shape[1]))])
    return X, y, Q


def digest(name: str, small_budget: bool) -> str:
    X, y, Q = _matrix()
    budget = 64 if small_budget else tree_module._HIST_ENTRY_BUDGET
    with mock.patch.object(tree_module, "_HIST_ENTRY_BUDGET", budget):
        model = CASES[name]().fit(X, y)
    pred = np.ascontiguousarray(model.predict(Q), dtype=np.float64)
    return hashlib.sha256(pred.tobytes()).hexdigest()


@pytest.mark.parametrize("small_budget", [False, True], ids=["direct", "blocked"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tree_outputs(name, small_budget):
    expected = GOLDEN_SHA256[name][int(small_budget)]
    assert digest(name, small_budget) == expected, f"{name} predictions drifted"
