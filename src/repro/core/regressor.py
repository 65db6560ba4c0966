"""The queue-time regressor (§III).

"The regression model's architecture contains 33 input features and three
hidden layers" with ELU activations, smooth-L1 loss and Adam.  It trains
only on long-wait jobs (queue time above the cutoff) and regresses
``log1p(minutes)`` — the natural-log treatment the paper applies against
skew — inverting back to minutes at prediction time.  Batch normalisation
is available behind a flag purely for the ablation that reproduces the
paper's decision to reject it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RegressorConfig
from repro.features.transforms import StandardScaler
from repro.nn import (
    Activation,
    Adam,
    BatchNorm1d,
    Dense,
    Dropout,
    EarlyStopping,
    MetricsCallback,
    Sequential,
    SmoothL1Loss,
)
from repro.utils.rng import default_rng
from repro.utils.validation import check_1d, check_2d, check_fitted

__all__ = ["QueueTimeRegressor"]


class QueueTimeRegressor:
    """Feed-forward regression of queue minutes over the Table II features."""

    def __init__(
        self,
        n_features: int,
        config: RegressorConfig | None = None,
        seed: int | None = 0,
    ) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = n_features
        self.config = config or RegressorConfig()
        self.seed = seed
        self.net_: Sequential | None = None
        # Input standardisation fitted on the training window.  The paper's
        # features are log-transformed but span ~[0, 10]; zero-mean/unit-
        # variance inputs keep the ELU stack in its responsive range.
        self._scaler = StandardScaler()

    def _build(self, rng: np.random.Generator) -> Sequential:
        cfg = self.config
        layers = []
        width_in = self.n_features
        for width in cfg.hidden:
            layers.append(Dense(width_in, width, seed=rng))
            if cfg.batch_norm:
                layers.append(BatchNorm1d(width))
            layers.append(Activation(cfg.activation))
            if cfg.dropout > 0:
                layers.append(Dropout(cfg.dropout, seed=rng))
            width_in = width
        layers.append(Dense(width_in, 1, init="glorot_uniform", seed=rng))
        net = Sequential(layers)
        net.compile(SmoothL1Loss(beta=cfg.smooth_l1_beta), Adam(lr=cfg.lr))
        return net

    def _encode_target(self, minutes: np.ndarray) -> np.ndarray:
        return np.log1p(minutes) if self.config.log_target else minutes

    def _decode_target(self, y: np.ndarray) -> np.ndarray:
        if self.config.log_target:
            return np.expm1(np.minimum(y, 30.0))  # cap avoids inf on blowups
        return y

    def fit(self, X: np.ndarray, minutes: np.ndarray) -> "QueueTimeRegressor":
        """Train on time-ordered long-wait rows; the most recent 10 % of
        the window serves as the early-stopping validation split."""
        X = check_2d(X, "X")
        minutes = check_1d(minutes, "minutes")
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        if np.any(minutes < 0):
            raise ValueError("queue minutes must be non-negative")
        rng = default_rng(self.seed)
        cfg = self.config
        X = self._scaler.fit(X).transform(X)
        y = self._encode_target(minutes)
        n_val = max(1, int(0.1 * len(X)))
        Xtr, ytr = X[:-n_val], y[:-n_val]
        Xval, yval = X[-n_val:], y[-n_val:]
        if len(Xtr) == 0:
            Xtr, ytr = X, y
        self.net_ = self._build(rng)
        stopper = EarlyStopping(monitor="val_loss", patience=cfg.patience)
        self.net_.fit(
            Xtr,
            ytr,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            validation_data=(Xval, yval),
            callbacks=[stopper, MetricsCallback(model="regressor")],
            seed=rng,
        )
        return self

    def predict_minutes(self, X: np.ndarray) -> np.ndarray:
        """Predicted queue time in minutes (non-negative)."""
        check_fitted(self, "net_")
        X = self._scaler.transform(check_2d(X, "X"))
        return np.maximum(self._decode_target(self.net_.predict(X)), 0.0)

    def predict_interval(
        self,
        X: np.ndarray,
        n_samples: int = 30,
        alpha: float = 0.2,
    ) -> dict[str, np.ndarray]:
        """Monte-Carlo-dropout prediction intervals.

        §V notes the difficulty of diagnosing the model's "widely
        inaccurate guesses"; MC dropout (dropout left active at inference,
        Gal & Ghahramani 2016) gives each prediction an epistemic spread.
        Returns ``median``, ``lower`` and ``upper`` (the ``alpha/2`` and
        ``1 − alpha/2`` quantiles over ``n_samples`` stochastic passes),
        all in minutes.  Requires ``dropout > 0`` in the config; with
        deterministic layers only, all quantiles coincide.
        """
        check_fitted(self, "net_")
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        Xs = self._scaler.transform(check_2d(X, "X"))
        draws = np.empty((n_samples, len(Xs)))
        for s in range(n_samples):
            out = self.net_.forward(Xs, training=True).ravel()
            draws[s] = np.maximum(self._decode_target(out), 0.0)
        lo, med, hi = np.quantile(
            draws, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0], axis=0
        )
        return {"median": med, "lower": lo, "upper": hi}
