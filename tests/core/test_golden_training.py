"""Golden training and tuning numbers.

Pins what a short seeded fit and a seeded TPE study produce, so any change
to the NN, optimiser, sampler or study code that moves a trained number
fails here.  Predictions are compared with ``rtol=1e-5`` rather than by
bytes because float32 BLAS kernels differ between machines; the TPE study
does no BLAS work and is compared exactly.
"""

import numpy as np

from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.regressor import QueueTimeRegressor
from repro.hpo import Study, TPESampler

CLASSIFIER_PROBA = [
    0.7873839139938354, 0.08372965455055237, 0.03255090117454529,
    0.23774302005767822, 0.511006236076355, 0.7684375047683716,
    0.2884009778499603, 0.5868484973907471, 0.7265849709510803,
    0.5635817646980286, 0.7263423204421997, 0.050153136253356934,
    0.07702013850212097, 0.12460142374038696, 0.7368567585945129,
    0.5712363719940186,
]

REGRESSOR_MINUTES = [
    1.5492303371429443, 2.493075132369995, 35.63020706176758,
    1.4384857416152954, 1.393713355064392, 1.3201968669891357,
    1.897936224937439, 1.3794317245483398, 1.3754020929336548,
    2.093864917755127, 1.2678476572036743, 1.3036975860595703,
    2.0412168502807617, 24.437511444091797, 1.6904207468032837,
    4.460463047027588,
]

#: (x, n, value) of every trial, in order.
TPE_TRIALS = [
    (-3.314806662851005, 2, 21.33745986920893),
    (2.410195721651175, 5, 2.346054112537691),
    (-3.2469708620768065, 4, 20.722746934367816),
    (-0.1675896148733278, 2, 2.5095603161967097),
    (1.8766172112737163, 1, 1.3926491294644492),
    (3.734301724008615, 7, 8.171755055912177),
    (1.8723795479566272, 5, 1.3873563017146955),
    (1.5046145397057726, 1, 1.0648285638295825),
    (1.239878201732778, 1, 1.0001024508001624),
    (1.1370805171183456, 1, 1.0127508096142603),
    (0.7718220384357366, 1, 1.2286541629257541),
    (1.0030817600181088, 1, 1.0609686172357549),
    (0.759603381175455, 1, 1.240488843754546),
    (1.1505036319814517, 1, 1.0098995272488824),
]


def _data():
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(480, 6))
    w = rng.normal(size=6)
    minutes = np.exp(1.5 + 0.8 * np.tanh(X @ w)) + rng.gamma(2.0, 3.0, size=480)
    return X, minutes


def test_classifier_holdout_predictions_golden():
    X, minutes = _data()
    y_long = (minutes > np.median(minutes)).astype(np.int64)
    clf = QuickStartClassifier(
        6, ClassifierConfig(hidden=(16, 8), epochs=3), seed=0
    ).fit(X[:400], y_long[:400])
    np.testing.assert_allclose(
        clf.predict_proba(X[400:416]), CLASSIFIER_PROBA, rtol=1e-5
    )


def test_regressor_holdout_predictions_golden():
    X, minutes = _data()
    reg = QueueTimeRegressor(
        6, RegressorConfig(hidden=(16, 8, 4), epochs=8, lr=1e-2), seed=0
    ).fit(X[:400], minutes[:400])
    np.testing.assert_allclose(
        reg.predict_minutes(X[400:416]), REGRESSOR_MINUTES, rtol=1e-5
    )


def test_tpe_study_golden():
    def objective(trial):
        x = trial.suggest_float("x", -4.0, 4.0)
        n = trial.suggest_int("n", 1, 8)
        return (x - 1.25) ** 2 + 0.5 * abs(n - 3)

    study = Study(sampler=TPESampler(seed=3, n_startup=5))
    study.optimize(objective, n_trials=14)
    assert [
        (t.params["x"], t.params["n"], t.value) for t in study.trials
    ] == TPE_TRIALS
    assert study.best_params == {"x": 1.239878201732778, "n": 1}
    assert study.best_value == 1.0001024508001624
