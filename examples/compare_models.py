#!/usr/bin/env python
"""Reproduce the paper's model comparison (Figs. 6-9) at example scale.

Trains the neural network, XGBoost-style gradient boosting, random forest
and kNN on identical time-series folds of a simulated trace and prints the
average-percent-error and within-100 %-error series per fold — the two
metrics of §IV.

Run:  python examples/compare_models.py          (~2 min)
      python examples/compare_models.py --tune   (NN gets the Optuna-style
                                                  HPO treatment; slower)
"""

from __future__ import annotations

import argparse

from repro.core import TroutConfig, TuningConfig
from repro.core.training import build_feature_matrix
from repro.core.zoo import compare_models
from repro.eval.report import format_table
from repro.workload import WorkloadConfig, generate_trace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-jobs", type=int, default=30_000)
    ap.add_argument("--tune", action="store_true", help="TPE-tune the NN per fold")
    ap.add_argument("--trials", type=int, default=15)
    args = ap.parse_args()

    print("simulating + featurising...")
    trace, cluster = generate_trace(
        WorkloadConfig(n_jobs=args.n_jobs, seed=7, load=0.32)
    )
    config = TroutConfig(seed=0)
    fm, _ = build_feature_matrix(trace.jobs, cluster, config)

    tuning = TuningConfig(n_trials=args.trials, seed=0) if args.tune else None
    print("training the model zoo on folds 4 and 5...")
    comparison = compare_models(fm, config, folds=[4, 5], tuning=tuning)

    for fold in (4, 5):
        print(f"\n--- fold {fold} ---")
        mape = comparison.series("mape", fold)
        within = comparison.series("within_100", fold)
        rows = [
            [m, mape[m], 100 * within[m]]
            for m in sorted(mape, key=mape.get)
        ]
        print(
            format_table(
                ["model", "avg percent error", "% within 100% error"], rows
            )
        )
        print(f"winner (APE): {comparison.winner('mape', fold)}")


if __name__ == "__main__":
    main()
