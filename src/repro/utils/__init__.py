"""Shared utilities: seeding, timing, logging, validation."""

from repro.utils.rng import SeedSequenceFactory, default_rng, spawn_rngs
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_consistent_length,
    check_finite,
    ensure_float64,
)

__all__ = [
    "SeedSequenceFactory",
    "default_rng",
    "spawn_rngs",
    "Timer",
    "check_1d",
    "check_2d",
    "check_consistent_length",
    "check_finite",
    "ensure_float64",
]
