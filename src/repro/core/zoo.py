"""Model-zoo comparison (§IV, Figs. 6-9).

"The regression-based neural network was compared against … an XGBoost
regression model, a random forest regression model, and a k nearest
neighbors regression model.  All models were trained on the same data and
split with the same features."  This harness does exactly that over the
time-series folds, producing per-model average-percent-error and
within-100 %-error series.

All baselines regress ``log1p(minutes)`` like the NN (the shared
natural-log treatment), so the comparison isolates the model family.

The zoo builds :class:`repro.core.regressor.QueueTimeRegressor`
instances, so it belongs in ``core`` — in ``eval`` it inverted the
layering DAG and dragged training machinery into anything importing
eval's metrics (the serving layer most of all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import TroutConfig
from repro.core.regressor import QueueTimeRegressor
from repro.data.splits import TimeSeriesSplit
from repro.eval.metrics import (
    mean_absolute_percentage_error,
    pearson_r,
    within_percent_error,
)
from repro.features.pipeline import FeatureMatrix
from repro.ml import (
    GradientBoostingRegressor,
    KNeighborsRegressor,
    RandomForestRegressor,
)
from repro.utils.logging import get_logger

__all__ = ["ModelScore", "ComparisonResult", "default_model_zoo", "compare_models"]

log = get_logger(__name__)


@dataclass
class ModelScore:
    """One model's metrics on one fold."""

    model: str
    fold: int
    mape: float
    within_100: float
    pearson: float
    n_test: int


@dataclass
class ComparisonResult:
    """All (model, fold) scores with convenience pivots."""

    scores: list[ModelScore]

    def models(self) -> list[str]:
        seen: list[str] = []
        for s in self.scores:
            if s.model not in seen:
                seen.append(s.model)
        return seen

    def series(self, metric: str, fold: int) -> dict[str, float]:
        """metric value per model on one fold (a Fig. 6-9 bar series)."""
        return {
            s.model: getattr(s, metric) for s in self.scores if s.fold == fold
        }

    def per_fold(self, metric: str) -> dict[str, list[float]]:
        """metric per model across folds, fold-ordered."""
        out: dict[str, list[float]] = {m: [] for m in self.models()}
        for s in sorted(self.scores, key=lambda s: s.fold):
            out[s.model].append(getattr(s, metric))
        return out

    def winner(self, metric: str, fold: int, smaller_is_better: bool = True) -> str:
        """Best model on one fold for one metric."""
        series = self.series(metric, fold)
        pick = min if smaller_is_better else max
        return pick(series, key=series.get)


class _LogSpaceModel:
    """Wrap a raw-space regressor to fit/predict in log1p minutes."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def fit(self, X: np.ndarray, minutes: np.ndarray) -> "_LogSpaceModel":
        self.inner.fit(X, np.log1p(minutes))
        return self

    def predict_minutes(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(np.expm1(np.minimum(self.inner.predict(X), 30.0)), 0.0)


class _TunedNN:
    """The paper's NN: TPE-tuned per fold (see :mod:`repro.core.tuning`)."""

    def __init__(self, tuning) -> None:
        self.tuning = tuning
        self._model = None

    def fit(self, X: np.ndarray, minutes: np.ndarray) -> "_TunedNN":
        from repro.core.tuning import tune_regressor

        self._model, _ = tune_regressor(X, minutes, self.tuning)
        return self

    def predict_minutes(self, X: np.ndarray) -> np.ndarray:
        return self._model.predict_minutes(X)


def default_model_zoo(
    n_features: int,
    config: TroutConfig,
    seed: int = 0,
    tuning=None,
) -> dict[str, Callable[[], object]]:
    """Factories for the four compared models (fresh instance per fold).

    With ``tuning`` (a :class:`repro.core.tuning.TuningConfig`) the NN entry
    is HPO-tuned per fold, as the paper did with Optuna; otherwise it uses
    the fixed default architecture.
    """

    def _nn(k: int):
        if tuning is not None:
            import dataclasses

            return _TunedNN(dataclasses.replace(tuning, seed=tuning.seed + k))
        return QueueTimeRegressor(n_features, config.regressor, seed=seed + k)

    return {
        "neural_net": _nn,
        "xgboost": lambda k: _LogSpaceModel(
            GradientBoostingRegressor(
                n_estimators=120,
                learning_rate=0.08,
                max_depth=6,
                subsample=0.8,
                colsample=0.8,
                seed=seed + k,
            )
        ),
        "random_forest": lambda k: _LogSpaceModel(
            RandomForestRegressor(n_estimators=40, max_depth=14, seed=seed + k)
        ),
        "knn": lambda k: _LogSpaceModel(
            KNeighborsRegressor(n_neighbors=10, weights="distance")
        ),
    }


def compare_models(
    fm: FeatureMatrix,
    config: TroutConfig | None = None,
    zoo: dict[str, Callable[[int], object]] | None = None,
    folds: list[int] | None = None,
    tuning=None,
) -> ComparisonResult:
    """Train every zoo model on every requested fold's long-wait jobs.

    ``folds`` selects 1-based fold numbers (default: all).  Each model gets
    identical train/test rows and the identical 33-feature matrix.  Pass a
    ``tuning`` config to give the NN the paper's per-fold HPO treatment.
    """
    config = config or TroutConfig()
    zoo = zoo or default_model_zoo(
        fm.X.shape[1], config, seed=config.seed, tuning=tuning
    )
    splitter = TimeSeriesSplit(config.n_splits, config.test_fraction)
    q = fm.queue_time_min
    scores: list[ModelScore] = []
    for k, (train_idx, test_idx) in enumerate(splitter.split(len(fm)), start=1):
        if folds is not None and k not in folds:
            continue
        tr = train_idx[q[train_idx] > config.cutoff_min]
        te = test_idx[q[test_idx] > config.cutoff_min]
        if len(tr) < 20 or len(te) < 5:
            log.warning("fold %d skipped: too few long-wait jobs", k)
            continue
        for name, factory in zoo.items():
            model = factory(k)
            model.fit(fm.X[tr], q[tr])
            pred = model.predict_minutes(fm.X[te])
            scores.append(
                ModelScore(
                    model=name,
                    fold=k,
                    mape=mean_absolute_percentage_error(q[te], pred),
                    within_100=within_percent_error(q[te], pred),
                    pearson=pearson_r(q[te], pred),
                    n_test=len(te),
                )
            )
            log.info(
                "fold %d %s: mape=%.1f%% within100=%.2f",
                k,
                name,
                scores[-1].mape,
                scores[-1].within_100,
            )
    return ComparisonResult(scores)
