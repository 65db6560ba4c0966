"""Evaluation: the paper's metrics and report formatting for the
tables/figures reproduced in ``benchmarks/``.  The model-comparison
harness builds core regressors, so it lives in :mod:`repro.core.zoo`."""

from repro.eval.calibration import coverage_curve, interval_coverage
from repro.eval.metrics import (
    absolute_percentage_error,
    binary_accuracy,
    binned_ape,
    mean_absolute_percentage_error,
    median_absolute_percentage_error,
    pearson_r,
    within_percent_error,
)
from repro.eval.report import ascii_scatter, density_series, format_table

__all__ = [
    "absolute_percentage_error",
    "mean_absolute_percentage_error",
    "median_absolute_percentage_error",
    "within_percent_error",
    "pearson_r",
    "binary_accuracy",
    "binned_ape",
    "density_series",
    "format_table",
    "ascii_scatter",
    "interval_coverage",
    "coverage_curve",
]
