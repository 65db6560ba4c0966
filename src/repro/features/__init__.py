"""Feature engineering (paper §III, Table II).

Submodules:

- :mod:`repro.features.snapshots` — partition queue / running /
  higher-priority ("ahead") aggregates at each job's eligibility instant,
  stabbed by sorted range expansion.  The paper's chunked interval trees
  are its test oracle (``tests/oracles/interval_tree.py``).
- :mod:`repro.features.user_history` — per-user past-day aggregates.
- :mod:`repro.features.static_specs` — partition/cluster specification
  features.
- :mod:`repro.features.transforms` — log1p, min-max, standard and Box-Cox
  scaling.
- :mod:`repro.features.pipeline` — assembles the Table II matrix, for a
  whole trace or for selected rows (:mod:`repro.features.rows`).
- :mod:`repro.features.live` — deployment-time rows for the jobs pending
  at a query instant, computed for those jobs only.
"""

from repro.features.names import FEATURE_NAMES, feature_index
from repro.features.pipeline import FeatureMatrix, FeaturePipeline
from repro.features.transforms import (
    BoxCoxScaler,
    Log1pTransform,
    MinMaxScaler,
    StandardScaler,
    TransformChain,
)

__all__ = [
    "FEATURE_NAMES",
    "feature_index",
    "FeaturePipeline",
    "FeatureMatrix",
    "Log1pTransform",
    "MinMaxScaler",
    "StandardScaler",
    "BoxCoxScaler",
    "TransformChain",
]
