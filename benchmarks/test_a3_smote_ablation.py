"""A3 — §III claim: SMOTE + undersampling helps the skewed classifier.

"To mitigate data skew, SMOTE … algorithms were used for undersampling the
majority class … and oversampling the minority class … to create balanced
classes."  The bench trains the identical classifier with and without the
balancing step and compares *balanced* accuracy (mean of per-class
accuracies) on the most recent holdout — the metric imbalance corrupts.
"""

import numpy as np

from benchmarks.conftest import emit, once
from repro.core.classifier import QuickStartClassifier
from repro.data.splits import holdout_recent
from repro.eval.report import format_table
from repro.nn import (
    Activation,
    Adam,
    BCEWithLogitsLoss,
    Dense,
    Dropout,
    EarlyStopping,
    Sequential,
)
from repro.utils.rng import default_rng


def _train_unbalanced(X, y, cfg, seed):
    """The same network/optimiser/scaling as QuickStartClassifier, minus
    the SMOTE + undersampling step — the only varying factor."""
    from repro.features.transforms import StandardScaler

    rng = default_rng(seed)
    scaler = StandardScaler().fit(X)
    Xs = scaler.transform(X)
    layers = []
    w = X.shape[1]
    for h in cfg.hidden:
        layers += [Dense(w, h, seed=rng), Activation(cfg.activation)]
        if cfg.dropout:
            layers.append(Dropout(cfg.dropout, seed=rng))
        w = h
    layers.append(Dense(w, 1, init="glorot_uniform", seed=rng))
    net = Sequential(layers).compile(BCEWithLogitsLoss(), Adam(lr=cfg.lr))
    n_val = max(1, int(0.1 * len(Xs)))
    net.fit(
        Xs[:-n_val],
        y[:-n_val],
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        validation_data=(Xs[-n_val:], y[-n_val:]),
        callbacks=[EarlyStopping(patience=cfg.patience)],
        seed=rng,
    )

    def predict(Xq):
        logits = net.predict(scaler.transform(Xq))
        return (0.5 * (1.0 + np.tanh(0.5 * logits)) >= 0.5).astype(float)

    return predict


def _balanced_accuracy(y_true, y_pred):
    accs = []
    for cls in (0.0, 1.0):
        mask = y_true == cls
        if mask.any():
            accs.append(float(np.mean(y_pred[mask] == cls)))
    return float(np.mean(accs))


def test_a3_smote_vs_unbalanced(benchmark, bench_fm, bench_config):
    fm, _ = bench_fm
    q = fm.queue_time_min
    y = (q > bench_config.cutoff_min).astype(float)
    past, recent = holdout_recent(len(fm), bench_config.holdout_fraction)

    def run_both():
        clf = QuickStartClassifier(
            fm.X.shape[1], bench_config.classifier, seed=bench_config.seed
        ).fit(fm.X[past], y[past])
        smote_pred = clf.predict(fm.X[recent]).astype(float)
        raw_predict = _train_unbalanced(
            fm.X[past], y[past], bench_config.classifier, seed=bench_config.seed
        )
        raw_pred = raw_predict(fm.X[recent])
        return smote_pred, raw_pred

    smote_pred, raw_pred = once(benchmark, run_both)

    truth = y[recent]
    bal_smote = _balanced_accuracy(truth, smote_pred)
    bal_raw = _balanced_accuracy(truth, raw_pred)
    long_recall_smote = float(np.mean(smote_pred[truth == 1] == 1))
    long_recall_raw = float(np.mean(raw_pred[truth == 1] == 1))
    emit(
        "a3_smote_ablation",
        format_table(
            ["variant", "balanced accuracy", "long-wait recall"],
            [
                ["SMOTE + undersampling", bal_smote, long_recall_smote],
                ["unbalanced", bal_raw, long_recall_raw],
            ],
            float_fmt="{:.4f}",
        ),
    )

    # Shape: balancing lifts minority-class recall without destroying
    # balanced accuracy.
    assert long_recall_smote >= long_recall_raw - 0.02
    assert bal_smote >= bal_raw - 0.02
