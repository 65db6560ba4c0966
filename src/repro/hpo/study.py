"""Define-by-run studies (the Optuna-style driver).

An objective receives a :class:`Trial` and calls ``suggest_float`` /
``suggest_int`` / ``suggest_categorical``; the study minimises the returned
value, drawing every suggestion from its :class:`~repro.hpo.samplers.TPESampler`.

Example::

    def objective(trial):
        lr = trial.suggest_float("lr", 1e-4, 1e-1, log=True)
        width = trial.suggest_int("width", 16, 256, log=True)
        return train_and_eval(lr, width)

    study = Study(sampler=TPESampler(seed=0))
    study.optimize(objective, n_trials=40)
    print(study.best_params, study.best_value)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.hpo.samplers import TPESampler
from repro.hpo.space import Categorical, Float, Int, SearchSpace
from repro.utils.logging import get_logger

__all__ = ["Trial", "FrozenTrial", "Study"]

log = get_logger(__name__)


@dataclass
class FrozenTrial:
    """Completed trial record."""

    number: int
    params: dict[str, Any]
    units: dict[str, float]
    value: float


class Trial:
    """Live trial handed to the objective."""

    def __init__(self, study: "Study", number: int) -> None:
        self._study = study
        self.number = number
        self.params: dict[str, Any] = {}
        self.units: dict[str, float] = {}

    def suggest_float(
        self, name: str, low: float, high: float, log: bool = False
    ) -> float:
        param = self._study.space.register(name, Float(low, high, log=log))
        return self._suggest(name, param)

    def suggest_int(self, name: str, low: int, high: int, log: bool = False) -> int:
        param = self._study.space.register(name, Int(low, high, log=log))
        return self._suggest(name, param)

    def suggest_categorical(self, name: str, choices: list) -> Any:
        param = self._study.space.register(name, Categorical(choices))
        return self._suggest(name, param)

    def _suggest(self, name: str, param) -> Any:
        if name in self.params:
            return self.params[name]
        units, values = self._study._history_for(name)
        u = self._study.sampler.sample_unit(param, units, values)
        value = param.from_unit(u)
        self.units[name] = u
        self.params[name] = value
        return value


class Study:
    """Minimisation study driven by a TPE sampler."""

    def __init__(self, sampler: TPESampler) -> None:
        self.sampler = sampler
        self.space = SearchSpace()
        self.trials: list[FrozenTrial] = []

    # ------------------------------------------------------------------ #
    def _history_for(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        units, values = [], []
        for t in self.trials:
            if name in t.units:
                units.append(t.units[name])
                values.append(t.value)
        return np.asarray(units), np.asarray(values)

    def optimize(
        self, objective: Callable[[Trial], float], n_trials: int
    ) -> "Study":
        """Run ``n_trials`` trials."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        for _ in range(n_trials):
            trial = Trial(self, number=len(self.trials))
            value = float(objective(trial))
            self.trials.append(
                FrozenTrial(
                    number=trial.number,
                    params=dict(trial.params),
                    units=dict(trial.units),
                    value=value,
                )
            )
            log.debug("trial %d: value=%s params=%s", trial.number, value, trial.params)
        return self

    @property
    def best_trial(self) -> FrozenTrial:
        if not self.trials:
            raise RuntimeError("no completed trials")
        return min(self.trials, key=lambda t: t.value)

    @property
    def best_value(self) -> float:
        return self.best_trial.value

    @property
    def best_params(self) -> dict[str, Any]:
        return dict(self.best_trial.params)
