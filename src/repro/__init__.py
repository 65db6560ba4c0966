"""repro — reproduction of "A Hierarchical Deep Learning Approach for
Predicting Job Queue Times in HPC Systems" (SC 2024).

The package builds every layer of the paper's system from scratch on
NumPy: a Slurm-like scheduler simulator and Anvil-shaped synthetic
workload (substituting for the proprietary trace), Table II feature
engineering, a feed-forward NN framework, classical-ML baselines, SMOTE
balancing, Optuna-style HPO, SHAP-style attribution, and the hierarchical
TROUT model with its CLI.

Quickstart::

    from repro.workload import WorkloadConfig, generate_trace
    from repro.core import TroutConfig, train_trout
    from repro.core.training import build_feature_matrix

    trace, cluster = generate_trace(WorkloadConfig(n_jobs=30_000, seed=7))
    fm, runtime = build_feature_matrix(trace.jobs, cluster)
    result = train_trout(fm)
    print(result.model.predict_messages(fm.X[-5:]))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
