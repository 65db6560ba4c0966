"""Shared benchmark fixtures.

Every table/figure bench draws on one simulated trace, one feature matrix
and one set of trained models, all session-scoped so the suite pays for
each exactly once.  Scale knobs come from the environment:

- ``REPRO_BENCH_JOBS``   (default 60000) — trace size,
- ``REPRO_BENCH_SEED``   (default 7),
- ``REPRO_BENCH_LOAD``   (default 0.32) — bottleneck-pool utilisation,
- ``REPRO_BENCH_TRIALS`` (default 20) — per-fold TPE budget for the NN
  (the paper's Optuna step).

Each bench prints the rows/series the paper reports and also writes them
to ``benchmarks/out/<experiment>.txt`` so EXPERIMENTS.md can reference a
concrete artefact.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import TroutConfig, TuningConfig, run_regression_cv, train_trout
from repro.core.training import build_feature_matrix
from repro.core.zoo import compare_models
from repro.workload import WorkloadConfig, generate_trace

OUT_DIR = Path(__file__).parent / "out"


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_workload_config() -> WorkloadConfig:
    return WorkloadConfig(
        n_jobs=int(os.environ.get("REPRO_BENCH_JOBS", 60_000)),
        seed=int(os.environ.get("REPRO_BENCH_SEED", 7)),
        load=float(os.environ.get("REPRO_BENCH_LOAD", 0.32)),
        cluster_scale=0.05,
    )


@pytest.fixture(scope="session")
def bench_tuning() -> TuningConfig:
    return TuningConfig(
        n_trials=int(os.environ.get("REPRO_BENCH_TRIALS", 20)), seed=0
    )


@pytest.fixture(scope="session")
def bench_trace(bench_workload_config):
    """(SimulationResult, Cluster) — the benchmark's Anvil stand-in."""
    return generate_trace(bench_workload_config)


@pytest.fixture(scope="session")
def bench_config() -> TroutConfig:
    return TroutConfig(seed=0)


@pytest.fixture(scope="session")
def bench_fm(bench_trace, bench_config):
    """(FeatureMatrix, RuntimePredictor) over the benchmark trace."""
    result, cluster = bench_trace
    return build_feature_matrix(result.jobs, cluster, bench_config)


@pytest.fixture(scope="session")
def bench_cv(bench_fm, bench_config, bench_tuning):
    """Time-series CV of the TPE-tuned regressor (Figs. 4-5, §IV MAPE)."""
    fm, _ = bench_fm
    return run_regression_cv(fm, bench_config, tuning=bench_tuning)


@pytest.fixture(scope="session")
def bench_trained(bench_fm, bench_config):
    """Full hierarchy trained on the past 80 % (R1 accuracy)."""
    fm, _ = bench_fm
    return train_trout(fm, bench_config)


@pytest.fixture(scope="session")
def bench_comparison(bench_fm, bench_config, bench_tuning):
    """Model zoo on folds 4 and 5 (Figs. 6-9); NN gets the HPO treatment."""
    fm, _ = bench_fm
    return compare_models(fm, bench_config, folds=[4, 5], tuning=bench_tuning)


def once(benchmark, fn):
    """Run a heavyweight callable exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
