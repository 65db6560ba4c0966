"""Hyperparameter optimisation (the Optuna substitute).

The paper tunes its regressor with Optuna's TPE sampler.  This package
provides the same define-by-run API surface at the scale this
reproduction needs: a :class:`~repro.hpo.study.Study` minimising an
objective over :class:`~repro.hpo.study.Trial` objects with a TPE-style
(Parzen-estimator) sampler.  :mod:`repro.core.tuning` searches layer
width and depth, learning rate and dropout.
"""

from repro.hpo.samplers import TPESampler
from repro.hpo.space import Categorical, Float, Int, SearchSpace
from repro.hpo.study import Study, Trial

__all__ = [
    "Categorical",
    "Float",
    "Int",
    "SearchSpace",
    "TPESampler",
    "Study",
    "Trial",
]
