#!/usr/bin/env python
"""Hyperparameter search with the built-in Optuna substitute (§III).

Runs the same define-by-run TPE study the training pipeline uses
internally, but standalone and verbose: every trial's architecture and
validation MAPE is printed, then the winner is refit and scored on a
held-out window.

Run:  python examples/hpo_search.py   (~1 min)
"""

from __future__ import annotations

import numpy as np

from repro.core import TroutConfig
from repro.core.tuning import TuningConfig, tune_regressor
from repro.core.training import build_feature_matrix
from repro.eval.metrics import mean_absolute_percentage_error, pearson_r
from repro.eval.report import format_table
from repro.workload import WorkloadConfig, generate_trace


def main() -> None:
    print("simulating + featurising...")
    trace, cluster = generate_trace(WorkloadConfig(n_jobs=20_000, seed=7, load=0.32))
    config = TroutConfig(seed=0)
    fm, _ = build_feature_matrix(trace.jobs, cluster, config)
    q = fm.queue_time_min
    long_rows = np.flatnonzero(q > config.cutoff_min)
    # Time-ordered: tune on the earlier 80 %, test on the final 20 %.
    cut = int(0.8 * len(long_rows))
    tr, te = long_rows[:cut], long_rows[cut:]

    print(f"tuning on {len(tr)} long-wait jobs (TPE, 15 trials)...")
    model, study = tune_regressor(
        fm.X[tr], q[tr], TuningConfig(n_trials=15, seed=0)
    )

    rows = [
        [
            t.number,
            t.params["h1"],
            t.params["depth"],
            f"{t.params['lr']:.2e}",
            f"{t.params['dropout']:.2f}",
            t.value,
        ]
        for t in study.trials
    ]
    print(format_table(["trial", "width", "depth", "lr", "dropout", "val MAPE %"], rows))
    print(f"\nbest: {study.best_params}  (val MAPE {study.best_value:.1f}%)")

    pred = model.predict_minutes(fm.X[te])
    print(
        f"held-out window: MAPE {mean_absolute_percentage_error(q[te], pred):.1f}%, "
        f"Pearson r {pearson_r(q[te], pred):.3f}"
    )


if __name__ == "__main__":
    main()
