"""Classical ML models.

From-scratch substitutes for the scikit-learn / XGBoost baselines the paper
compares TROUT against (Fig. 6-9), plus the random forest used as the
runtime-prediction feature model:

- :class:`~repro.ml.tree.DecisionTreeRegressor` — vectorised CART.
- :class:`~repro.ml.forest.RandomForestRegressor` — bagged CART with
  feature subsampling, process-parallel training.
- :class:`~repro.ml.boosting.GradientBoostingRegressor` — second-order
  boosting with L2-regularised leaf weights (the XGBoost objective).
- :class:`~repro.ml.knn.KNeighborsRegressor` — KD-tree k-nearest-neighbour
  regression.

All tree models grow with one histogram split search (see
:mod:`repro.ml.binning`).  The exact sorted search it is checked against
is a test oracle in ``tests/oracles/exact_tree.py``, not a product path.
"""

from repro.ml.binning import BinnedMatrix
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "KNeighborsRegressor",
    "BinnedMatrix",
]
