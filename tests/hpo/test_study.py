"""Study/Trial optimisation loop."""

import numpy as np
import pytest

from repro.hpo import Study, TPESampler


def _quadratic(trial):
    x = trial.suggest_float("x", -5.0, 5.0)
    y = trial.suggest_float("y", -5.0, 5.0)
    return (x - 1.0) ** 2 + (y + 2.0) ** 2


def _random(seed, n_trials):
    """A sampler that stays in its uniform startup phase for the whole run."""
    return TPESampler(seed=seed, n_startup=n_trials)


def test_random_search_finds_decent_point():
    study = Study(sampler=_random(0, 120))
    study.optimize(_quadratic, n_trials=120)
    assert study.best_value < 1.0
    assert abs(study.best_params["x"] - 1.0) < 1.5


def test_tpe_beats_random_on_average():
    def run(sampler):
        s = Study(sampler=sampler)
        s.optimize(_quadratic, n_trials=60)
        return s.best_value

    rand = np.mean([run(_random(s, 60)) for s in range(5)])
    tpe = np.mean([run(TPESampler(seed=s)) for s in range(5)])
    assert tpe <= rand * 1.1  # TPE at least competitive, usually better


def test_suggest_int_and_categorical():
    def objective(trial):
        n = trial.suggest_int("n", 1, 10)
        act = trial.suggest_categorical("act", ["relu", "elu"])
        return float(n) + (0.0 if act == "elu" else 0.5)

    study = Study(sampler=_random(0, 80))
    study.optimize(objective, n_trials=80)
    assert study.best_params["n"] == 1
    assert study.best_params["act"] == "elu"


def test_repeated_suggest_same_trial_returns_same_value():
    seen = {}

    def objective(trial):
        a = trial.suggest_float("a", 0.0, 1.0)
        b = trial.suggest_float("a", 0.0, 1.0)
        seen["pair"] = (a, b)
        return a

    Study(sampler=TPESampler(seed=0)).optimize(objective, n_trials=1)
    assert seen["pair"][0] == seen["pair"][1]


def test_empty_study_best_raises():
    with pytest.raises(RuntimeError):
        Study(TPESampler(seed=0)).best_trial
    with pytest.raises(ValueError):
        Study(TPESampler(seed=0)).optimize(lambda t: 0.0, n_trials=0)


def test_tpe_sampler_validation():
    with pytest.raises(ValueError):
        TPESampler(gamma=0.0)
    with pytest.raises(ValueError):
        TPESampler(n_startup=0)
