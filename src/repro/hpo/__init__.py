"""Hyperparameter optimisation (the Optuna substitute).

The paper tunes learning rate, epochs, layer count/size, dropout, feature
subset and activation with Optuna.  This package provides the same
define-by-run API surface at the scale this reproduction needs: a
:class:`~repro.hpo.study.Study` minimising an objective over
:class:`~repro.hpo.study.Trial` objects, with random and TPE-style
(Parzen-estimator) samplers and a median pruner.
"""

from repro.hpo.pruners import MedianPruner, TrialPruned
from repro.hpo.samplers import RandomSampler, TPESampler
from repro.hpo.space import Categorical, Float, Int, SearchSpace
from repro.hpo.study import Study, Trial

__all__ = [
    "Categorical",
    "Float",
    "Int",
    "SearchSpace",
    "RandomSampler",
    "TPESampler",
    "MedianPruner",
    "TrialPruned",
    "Study",
    "Trial",
]
