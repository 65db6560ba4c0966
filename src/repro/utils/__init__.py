"""Shared utilities: seeding, logging, text tables, validation."""

from repro.utils.rng import default_rng
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_consistent_length,
    check_finite,
    ensure_float64,
)

__all__ = [
    "default_rng",
    "check_1d",
    "check_2d",
    "check_consistent_length",
    "check_finite",
    "ensure_float64",
]
