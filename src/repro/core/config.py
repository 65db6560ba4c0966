"""TROUT configuration.

Defaults follow §III: ten-minute cutoff, a two-hidden-layer classifier, a
three-hidden-layer ELU regressor with smooth-L1 loss and Adam, SMOTE-based
class balancing, time-series CV with five folds and test size one-sixth.
All knobs are dataclass fields so the HPO example and the ablation benches
can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ClassifierConfig", "RegressorConfig", "RuntimeModelConfig", "TroutConfig"]


def _check_nn_dtype(value: str | None) -> None:
    # Kept string-based so this module stays import-light; the nn layer
    # re-validates through resolve_nn_dtype at build time.
    if value is not None and value not in ("float32", "float64"):
        raise ValueError(
            f"nn_dtype must be 'float32', 'float64' or None, got {value!r}"
        )


@dataclass
class ClassifierConfig:
    """Quick-start binary classifier (2 hidden layers in the paper)."""

    hidden: tuple[int, ...] = (64, 32)
    activation: str = "elu"
    dropout: float = 0.2
    lr: float = 1e-3
    epochs: int = 40
    batch_size: int = 256
    patience: int = 6
    smote_k: int = 5
    undersample_majority_to: float = 2.0
    threshold: float = 0.5  # decision threshold on P(long wait)
    #: "float32" or "float64"; None defers to $REPRO_NN_DTYPE (default float32).
    nn_dtype: str | None = None

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ValueError("classifier needs at least one hidden layer")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        _check_nn_dtype(self.nn_dtype)


@dataclass
class RegressorConfig:
    """Queue-time regressor (3 hidden ELU layers, smooth L1, in the paper)."""

    hidden: tuple[int, ...] = (128, 64, 32)
    activation: str = "elu"
    dropout: float = 0.1
    lr: float = 1e-3
    epochs: int = 80
    batch_size: int = 256
    patience: int = 8
    smooth_l1_beta: float = 1.0
    batch_norm: bool = False  # tested and rejected in the paper
    log_target: bool = True  # train on log1p(minutes)
    #: "float32" or "float64"; None defers to $REPRO_NN_DTYPE (default float32).
    nn_dtype: str | None = None

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ValueError("regressor needs at least one hidden layer")
        _check_nn_dtype(self.nn_dtype)


@dataclass
class RuntimeModelConfig:
    """Random-forest runtime predictor feeding the Pred-Runtime features."""

    n_estimators: int = 30
    max_depth: int = 12
    min_samples_leaf: int = 4
    n_jobs: int = 1


@dataclass
class TroutConfig:
    """End-to-end pipeline configuration."""

    cutoff_min: float = 10.0
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    regressor: RegressorConfig = field(default_factory=RegressorConfig)
    runtime_model: RuntimeModelConfig = field(default_factory=RuntimeModelConfig)
    n_splits: int = 5
    test_fraction: float = 1.0 / 6.0
    holdout_fraction: float = 0.2  # most recent 20 % reserved (§III)
    val_fraction: float = 0.1  # tail of each training window for early stop
    seed: int = 0
    #: Network-wide dtype policy; propagated to both model configs unless
    #: they already set their own.  None defers to $REPRO_NN_DTYPE.
    nn_dtype: str | None = None

    def __post_init__(self) -> None:
        if self.cutoff_min <= 0:
            raise ValueError("cutoff_min must be positive")
        if not 0.0 < self.val_fraction < 0.5:
            raise ValueError("val_fraction must be in (0, 0.5)")
        _check_nn_dtype(self.nn_dtype)
        if self.nn_dtype is not None:
            if self.classifier.nn_dtype is None:
                self.classifier.nn_dtype = self.nn_dtype
            if self.regressor.nn_dtype is None:
                self.regressor.nn_dtype = self.nn_dtype
