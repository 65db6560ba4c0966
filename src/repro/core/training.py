"""End-to-end training and the paper's evaluation protocol.

Two entry points:

- :func:`run_regression_cv` — §III's time-series five-fold CV of the
  regressor (test size one-sixth), reporting per-fold MAPE / Pearson r /
  within-100 % (the numbers behind §IV and Figs. 4-5).
- :func:`train_trout` — trains the full hierarchy on the past 80 % and
  evaluates on the most recent 20 % (classifier accuracy ≈ 90 % in §IV),
  returning a ready :class:`~repro.core.hierarchical.TroutModel`.

Leakage discipline: the runtime model trains on the *oldest* sixth of the
trace — a window inside every fold's training set — so its predicted-runtime
features never encode future information; splits are strictly time-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classifier import QuickStartClassifier
from repro.core.config import TroutConfig
from repro.core.hierarchical import TroutModel
from repro.core.regressor import QueueTimeRegressor
from repro.core.runtime_model import RuntimePredictor
from repro.data.schema import JobSet
from repro.data.splits import TimeSeriesSplit, holdout_recent
from repro.eval.metrics import (
    binary_accuracy,
    mean_absolute_percentage_error,
    pearson_r,
    within_percent_error,
)
from repro.features.pipeline import FeatureMatrix, FeaturePipeline
from repro.obs import metrics, tracing
from repro.slurm.resources import Cluster
from repro.utils.logging import get_logger

__all__ = [
    "FoldResult",
    "CVResult",
    "TroutTrainingResult",
    "build_feature_matrix",
    "run_regression_cv",
    "train_trout",
]

log = get_logger(__name__)


@dataclass
class FoldResult:
    """Regression metrics for one time-series fold."""

    fold: int
    n_train: int
    n_test: int
    mape: float
    pearson: float
    within_100: float
    y_true: np.ndarray = field(repr=False)
    y_pred: np.ndarray = field(repr=False)


@dataclass
class CVResult:
    """All folds plus the paper's headline aggregates."""

    folds: list[FoldResult]

    @property
    def mape_last3(self) -> float:
        """Mean MAPE over the last three folds (§IV reports 97.567 %)."""
        last = self.folds[-3:]
        return float(np.mean([f.mape for f in last]))

    @property
    def final_pearson(self) -> float:
        """Pearson r on the final fold (§IV reports 0.7532)."""
        return self.folds[-1].pearson


@dataclass
class TroutTrainingResult:
    """A trained hierarchy and its holdout evaluation."""

    model: TroutModel
    classifier_accuracy: float
    classifier_accuracy_quick: float
    classifier_accuracy_long: float
    regression_mape_holdout: float
    n_holdout: int


def build_feature_matrix(
    jobs: JobSet,
    cluster: Cluster,
    config: TroutConfig | None = None,
) -> tuple[FeatureMatrix, RuntimePredictor]:
    """Featurise a trace with a leakage-safe runtime model.

    The runtime model trains on the oldest ``test_fraction`` of jobs (a
    subset of every fold's training window) and predicts runtimes for the
    whole trace; those predictions feed the three Pred-Runtime features.
    """
    config = config or TroutConfig()
    n = len(jobs)
    n_rt = max(10, int(n * config.test_fraction))
    runtime = RuntimePredictor(config.runtime_model, seed=config.seed)
    with tracing.span("runtime_model", rows=n_rt):
        runtime.fit(jobs[np.arange(n_rt)])
        pred = runtime.predict_minutes(jobs)
    fm = FeaturePipeline(cluster).compute(jobs, pred_runtime_min=pred)
    return fm, runtime


def run_regression_cv(
    fm: FeatureMatrix,
    config: TroutConfig | None = None,
    tuning: "TuningConfig | None" = None,
) -> CVResult:
    """Time-series CV of the long-wait regressor (the paper's protocol).

    Within each fold, train/evaluate only on jobs whose queue time exceeds
    the cutoff (the regressor's operating regime in the hierarchy).  With
    ``tuning`` set, each fold's regressor is Optuna-style TPE-tuned on a
    validation tail of its training window first — the paper's §III
    protocol.
    """
    config = config or TroutConfig()
    splitter = TimeSeriesSplit(config.n_splits, config.test_fraction)
    q = fm.queue_time_min
    results: list[FoldResult] = []
    for k, (train_idx, test_idx) in enumerate(splitter.split(len(fm)), start=1):
        tr = train_idx[q[train_idx] > config.cutoff_min]
        te = test_idx[q[test_idx] > config.cutoff_min]
        if len(tr) < 20 or len(te) < 5:
            raise ValueError(
                f"fold {k}: too few long-wait jobs (train={len(tr)}, test={len(te)})"
            )
        with tracing.span("cv_fold", fold=k, n_train=len(tr), n_test=len(te)):
            if tuning is not None:
                import dataclasses

                from repro.core.tuning import tune_regressor

                fold_tuning = dataclasses.replace(tuning, seed=tuning.seed + k)
                reg, _study = tune_regressor(fm.X[tr], q[tr], fold_tuning)
            else:
                reg = QueueTimeRegressor(
                    fm.X.shape[1], config.regressor, seed=config.seed + k
                )
                reg.fit(fm.X[tr], q[tr])
            pred = reg.predict_minutes(fm.X[te])
        results.append(
            FoldResult(
                fold=k,
                n_train=len(tr),
                n_test=len(te),
                mape=mean_absolute_percentage_error(q[te], pred),
                pearson=pearson_r(q[te], pred),
                within_100=within_percent_error(q[te], pred),
                y_true=q[te],
                y_pred=pred,
            )
        )
        reg_metrics = metrics.get_registry()
        fold_labels = {"fold": str(k)}
        reg_metrics.gauge(
            "cv_fold_mape", help="per-fold regression MAPE (%)", labels=fold_labels
        ).set(results[-1].mape)
        reg_metrics.gauge(
            "cv_fold_pearson", help="per-fold Pearson r", labels=fold_labels
        ).set(results[-1].pearson)
        log.info(
            "fold %d: mape=%.1f%% r=%.3f within100=%.2f",
            k,
            results[-1].mape,
            results[-1].pearson,
            results[-1].within_100,
        )
    return CVResult(results)


def train_trout(
    fm: FeatureMatrix,
    config: TroutConfig | None = None,
) -> TroutTrainingResult:
    """Train the full hierarchy; evaluate on the most recent holdout.

    Mirrors deployment: both networks see only the past 80 %, the holdout
    supplies the §IV classification accuracy and the hierarchy's MAPE on
    long-wait jobs.
    """
    config = config or TroutConfig()
    q = fm.queue_time_min
    past, recent = holdout_recent(len(fm), config.holdout_fraction)
    y_long = (q > config.cutoff_min).astype(np.float64)

    clf = QuickStartClassifier(fm.X.shape[1], config.classifier, seed=config.seed)
    with tracing.span("train.classifier", rows=len(past)):
        clf.fit(fm.X[past], y_long[past])

    long_tr = past[q[past] > config.cutoff_min]
    reg = QueueTimeRegressor(fm.X.shape[1], config.regressor, seed=config.seed)
    with tracing.span("train.regressor", rows=len(long_tr)):
        reg.fit(fm.X[long_tr], q[long_tr])

    model = TroutModel(
        classifier=clf,
        regressor=reg,
        cutoff_min=config.cutoff_min,
        feature_names=fm.names,
    )

    with tracing.span("evaluate.holdout", rows=len(recent)):
        pred_long = clf.predict(fm.X[recent]).astype(np.float64)
        truth = y_long[recent]
        acc = binary_accuracy(truth, pred_long)
        quick_mask = truth == 0
        long_mask = truth == 1
        acc_quick = (
            binary_accuracy(truth[quick_mask], pred_long[quick_mask])
            if np.any(quick_mask)
            else float("nan")
        )
        acc_long = (
            binary_accuracy(truth[long_mask], pred_long[long_mask])
            if np.any(long_mask)
            else float("nan")
        )
        long_te = recent[q[recent] > config.cutoff_min]
        mape = (
            mean_absolute_percentage_error(
                q[long_te], reg.predict_minutes(fm.X[long_te])
            )
            if len(long_te)
            else float("nan")
        )
    reg_metrics = metrics.get_registry()
    reg_metrics.gauge(
        "holdout_classifier_accuracy", help="recent-holdout classifier accuracy"
    ).set(acc)
    reg_metrics.gauge(
        "holdout_regressor_mape", help="recent-holdout long-wait MAPE (%)"
    ).set(mape if np.isfinite(mape) else 0.0)
    log.info(
        "holdout: clf acc=%.4f (quick=%.4f long=%.4f), regressor mape=%.1f%%",
        acc,
        acc_quick,
        acc_long,
        mape,
    )
    return TroutTrainingResult(
        model=model,
        classifier_accuracy=acc,
        classifier_accuracy_quick=acc_quick,
        classifier_accuracy_long=acc_long,
        regression_mape_holdout=mape,
        n_holdout=len(recent),
    )
