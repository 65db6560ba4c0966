"""Search-space parameter definitions.

Each parameter maps to and from a unit-interval internal coordinate so the
samplers can treat every dimension uniformly (log-scaled floats and ints
included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = ["Float", "Int", "Categorical", "SearchSpace"]


@dataclass(frozen=True)
class Float:
    """Continuous parameter on [low, high], optionally log-scaled."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high}]")
        if self.log and self.low <= 0:
            raise ValueError("log scale requires low > 0")

    def from_unit(self, u: float) -> float:
        if self.log:
            v = float(
                np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
            )
        else:
            v = self.low + u * (self.high - self.low)
        # exp/log round-tripping can land a hair outside the bounds.
        return float(min(max(v, self.low), self.high))

    def to_unit(self, value: float) -> float:
        if self.log:
            return float(
                (np.log(value) - np.log(self.low))
                / (np.log(self.high) - np.log(self.low))
            )
        return (value - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class Int:
    """Integer parameter on [low, high] inclusive, optionally log-scaled."""

    low: int
    high: int
    log: bool = False

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ValueError(f"need low <= high, got [{self.low}, {self.high}]")
        if self.log and self.low <= 0:
            raise ValueError("log scale requires low > 0")

    def from_unit(self, u: float) -> int:
        f = Float(self.low - 0.4999, self.high + 0.4999, log=False)
        if self.log:
            f = Float(max(self.low - 0.4999, 0.5), self.high + 0.4999, log=True)
        return int(np.clip(round(f.from_unit(u)), self.low, self.high))

    def to_unit(self, value: int) -> float:
        if self.high == self.low:
            return 0.5
        if self.log:
            return float(
                (np.log(value) - np.log(self.low))
                / (np.log(self.high) - np.log(self.low))
            )
        return (value - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class Categorical:
    """Unordered choice among explicit values."""

    choices: tuple

    def __init__(self, choices: Sequence[Any]) -> None:
        if len(choices) == 0:
            raise ValueError("Categorical needs at least one choice")
        object.__setattr__(self, "choices", tuple(choices))

    def from_unit(self, u: float) -> Any:
        k = min(int(u * len(self.choices)), len(self.choices) - 1)
        return self.choices[k]

    def to_unit(self, value: Any) -> float:
        k = self.choices.index(value)
        return (k + 0.5) / len(self.choices)


Param = Float | Int | Categorical


@dataclass
class SearchSpace:
    """Named parameter collection, grown define-by-run as trials ask."""

    params: dict[str, Param] = field(default_factory=dict)

    def register(self, name: str, param: Param) -> Param:
        """Register (or re-check) a parameter definition."""
        existing = self.params.get(name)
        if existing is None:
            self.params[name] = param
            return param
        if existing != param:
            raise ValueError(
                f"parameter {name!r} re-declared with a different definition"
            )
        return existing
