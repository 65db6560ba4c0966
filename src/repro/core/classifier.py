"""The quick-start binary classifier (§III).

"A fully connected binary classification model with two hidden layers …
predicts whether jobs will start in ten minutes or less."  Training data is
rebalanced with SMOTE + majority undersampling; early stopping validates on
the most recent tail of the training window (never shuffled across time).
Positive class (label 1) is a **long wait** — queue time over the cutoff —
so the downstream regressor fires when the classifier says 1.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ClassifierConfig
from repro.features.transforms import StandardScaler
from repro.nn import (
    Activation,
    Adam,
    BCEWithLogitsLoss,
    Dense,
    Dropout,
    EarlyStopping,
    MetricsCallback,
    Sequential,
)
from repro.sampling import balance_binary
from repro.utils.rng import default_rng
from repro.utils.validation import check_2d, check_fitted

__all__ = ["QuickStartClassifier"]


class QuickStartClassifier:
    """Binary NN over the Table II features.

    Parameters
    ----------
    n_features:
        Input width (33 for the canonical layout).
    config:
        Architecture/training knobs.
    seed:
        Controls init, balancing, and minibatch order.
    """

    def __init__(
        self,
        n_features: int,
        config: ClassifierConfig | None = None,
        seed: int | None = 0,
    ) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = n_features
        self.config = config or ClassifierConfig()
        self.seed = seed
        self.net_: Sequential | None = None
        # Standardise inputs on the training window (see QueueTimeRegressor).
        self._scaler = StandardScaler()

    def _build(self, rng: np.random.Generator) -> Sequential:
        cfg = self.config
        layers = []
        width_in = self.n_features
        for width in cfg.hidden:
            layers.append(Dense(width_in, width, seed=rng))
            layers.append(Activation(cfg.activation))
            if cfg.dropout > 0:
                layers.append(Dropout(cfg.dropout, seed=rng))
            width_in = width
        layers.append(Dense(width_in, 1, init="glorot_uniform", seed=rng))
        net = Sequential(layers)
        net.compile(BCEWithLogitsLoss(), Adam(lr=cfg.lr))
        return net

    def fit(self, X: np.ndarray, y_long: np.ndarray) -> "QuickStartClassifier":
        """Train on features and binary long-wait labels (time-ordered rows).

        The most recent ``10 %`` of rows become the early-stopping
        validation set *before* balancing (synthetic SMOTE rows never leak
        into validation).
        """
        X = check_2d(X, "X")
        y = np.asarray(y_long, dtype=np.float64).ravel()
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        if len(np.unique(y[: len(X)])) < 2:
            raise ValueError("need both classes present to train the classifier")
        rng = default_rng(self.seed)
        cfg = self.config
        X = self._scaler.fit(X).transform(X)
        n_val = max(1, int(0.1 * len(X)))
        Xtr, ytr = X[:-n_val], y[:-n_val]
        Xval, yval = X[-n_val:], y[-n_val:]
        if len(np.unique(ytr)) < 2:
            Xtr, ytr = X, y
            Xval, yval = X[-n_val:], y[-n_val:]
        Xb, yb = balance_binary(
            Xtr,
            ytr,
            k_neighbors=cfg.smote_k,
            undersample_majority_to=cfg.undersample_majority_to,
            seed=rng,
        )
        self.net_ = self._build(rng)
        stopper = EarlyStopping(monitor="val_loss", patience=cfg.patience)
        self.net_.fit(
            Xb,
            yb,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            validation_data=(Xval, yval),
            callbacks=[stopper, MetricsCallback(model="classifier")],
            seed=rng,
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(long wait) per row."""
        check_fitted(self, "net_")
        logits = self.net_.predict(self._scaler.transform(check_2d(X, "X")))
        return 0.5 * (1.0 + np.tanh(0.5 * logits))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary long-wait decision at the configured threshold."""
        return (self.predict_proba(X) >= self.config.threshold).astype(np.int64)
