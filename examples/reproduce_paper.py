#!/usr/bin/env python
"""Regenerate the paper's headline numbers in one run.

A pytest-free version of the benchmark suite's core path, for readers who
want the story in one script:

  Table I statistics → Fig. 2 queue-time shape → classifier accuracy (§IV)
  → regression fold MAPEs (§IV / Figs. 4-5) → model comparison (Figs. 6-9)

Scale with ``--n-jobs`` (default 30000, ~4 min; the benchmarks default to
60000 with per-fold HPO for the full treatment).

Run:  python examples/reproduce_paper.py [--n-jobs N] [--tune]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import TroutConfig, TuningConfig, run_regression_cv, train_trout
from repro.core.training import build_feature_matrix
from repro.data.stats import format_statistics_table, job_statistics
from repro.core.zoo import compare_models
from repro.eval.report import format_table
from repro.workload import WorkloadConfig, generate_trace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-jobs", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tune", action="store_true",
                    help="per-fold TPE tuning of the NN (the paper's Optuna step)")
    args = ap.parse_args()

    print("=" * 70)
    print("1. synthetic Anvil trace (substitutes the proprietary 3.8M-job log)")
    trace, cluster = generate_trace(
        WorkloadConfig(n_jobs=args.n_jobs, seed=args.seed, load=0.32)
    )
    print(format_statistics_table(job_statistics(trace.jobs)))
    q = trace.queue_time_min
    print(
        f"\nqueue-time shape (Fig. 2): {100 * np.mean(q < 10):.1f}% under "
        f"10 min (paper: 87%), max {q.max() / 60:.1f} h"
    )

    print("\n" + "=" * 70)
    print("2. Table II features + hierarchical training")
    config = TroutConfig(seed=0)
    fm, _ = build_feature_matrix(trace.jobs, cluster, config)
    trained = train_trout(fm, config)
    print(
        f"classifier accuracy on recent 20% holdout: "
        f"{trained.classifier_accuracy:.4f}  (paper: 0.9048)"
    )
    print(
        f"  per class: quick {trained.classifier_accuracy_quick:.4f}, "
        f"long {trained.classifier_accuracy_long:.4f}"
    )

    print("\n" + "=" * 70)
    print("3. time-series CV of the regressor (§IV, Figs. 4-5)")
    tuning = TuningConfig(n_trials=15, seed=0) if args.tune else None
    cv = run_regression_cv(fm, config, tuning=tuning)
    rows = [[f.fold, f.mape, f.pearson, f.within_100] for f in cv.folds]
    print(format_table(["fold", "MAPE %", "pearson r", "within 100%"], rows))
    print(
        f"last-3 mean MAPE: {cv.mape_last3:.1f}%  (paper: 97.57%)   "
        f"final-fold r: {cv.final_pearson:.3f}  (paper: 0.7532)"
    )

    print("\n" + "=" * 70)
    print("4. model comparison on folds 4 & 5 (Figs. 6-9)")
    comparison = compare_models(fm, config, folds=[4, 5], tuning=tuning)
    for fold in (4, 5):
        mape = comparison.series("mape", fold)
        within = comparison.series("within_100", fold)
        rows = [[m, mape[m], 100 * within[m]] for m in sorted(mape, key=mape.get)]
        print(f"\nfold {fold}:")
        print(format_table(["model", "avg % error", "% within 100%"], rows))
    print(
        "\npaper: the neural network wins on average percent error; with "
        "--tune it gets the Optuna treatment that makes that reliable here."
    )


if __name__ == "__main__":
    main()
