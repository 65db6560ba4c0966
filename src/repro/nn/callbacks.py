"""Training callbacks: early stopping, history, telemetry."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.network import Sequential

__all__ = ["Callback", "EarlyStopping", "History", "MetricsCallback"]


class Callback:
    """Hook invoked at epoch boundaries.  Return ``True`` to stop training."""

    def on_train_begin(self, net: "Sequential") -> None:
        pass

    def on_epoch_end(self, net: "Sequential", epoch: int, logs: Mapping[str, float]) -> bool:
        return False

    def on_train_end(self, net: "Sequential") -> None:
        pass


class History(Callback):
    """Records per-epoch logs into :attr:`epochs`."""

    def __init__(self) -> None:
        self.epochs: list[dict[str, float]] = []

    def on_train_begin(self, net: "Sequential") -> None:
        self.epochs = []

    def on_epoch_end(self, net, epoch, logs) -> bool:
        self.epochs.append(dict(logs))
        return False

    def series(self, key: str) -> np.ndarray:
        """Per-epoch values of one logged metric."""
        return np.array([e.get(key, np.nan) for e in self.epochs])


class EarlyStopping(Callback):
    """Stop when a monitored metric stops improving; restore best weights.

    Parameters
    ----------
    monitor:
        Key in the epoch logs (``"loss"`` or ``"val_loss"``).
    patience:
        Epochs without improvement tolerated before stopping.
    min_delta:
        Minimum decrease that counts as improvement.
    restore_best:
        Copy the best epoch's weights back at training end.
    """

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 5,
        min_delta: float = 0.0,
        restore_best: bool = True,
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.restore_best = restore_best
        self.best: float = np.inf
        self.best_epoch: int = -1
        self._since_best = 0
        self._best_weights: list[np.ndarray] | None = None

    def on_train_begin(self, net: "Sequential") -> None:
        self.best = np.inf
        self.best_epoch = -1
        self._since_best = 0
        self._best_weights = None

    def on_epoch_end(self, net, epoch, logs) -> bool:
        value = logs.get(self.monitor)
        if value is None:
            raise KeyError(
                f"EarlyStopping monitors {self.monitor!r} but epoch logs "
                f"only contain {sorted(logs)}"
            )
        if value < self.best - self.min_delta:
            self.best = float(value)
            self.best_epoch = epoch
            self._since_best = 0
            if self.restore_best:
                self._best_weights = [p.copy() for p in net.parameters()]
            return False
        self._since_best += 1
        return self._since_best >= self.patience

    def on_train_end(self, net: "Sequential") -> None:
        if self.restore_best and self._best_weights is not None:
            for p, best in zip(net.parameters(), self._best_weights):
                p[...] = best


class MetricsCallback(Callback):
    """Publish per-epoch training signals to the telemetry registry.

    Per epoch: ``nn_epoch_loss`` (and ``nn_epoch_val_loss`` when
    validation data is present), ``nn_learning_rate``, and
    ``nn_grad_norm`` — the global L2 norm of the last batch's gradients,
    the cheapest honest vanishing/exploding-gradient signal.  A
    ``nn_epochs_total`` counter accumulates across fits.  All series
    carry a ``model`` label so the classifier and regressor stay
    distinguishable in one registry.
    """

    def __init__(self, model: str = "net") -> None:
        self.model = model

    def _labels(self) -> dict[str, str]:
        return {"model": self.model}

    def on_epoch_end(self, net, epoch, logs) -> bool:
        reg = metrics.get_registry()
        labels = self._labels()
        reg.counter(
            "nn_epochs_total", help="training epochs completed", labels=labels
        ).inc()
        reg.gauge(
            "nn_epoch_loss", help="mean training loss of the last epoch",
            labels=labels,
        ).set(logs.get("loss", float("nan")))
        if "val_loss" in logs:
            reg.gauge(
                "nn_epoch_val_loss", help="validation loss of the last epoch",
                labels=labels,
            ).set(logs["val_loss"])
        if net.optimizer is not None:
            reg.gauge(
                "nn_learning_rate", help="current optimiser learning rate",
                labels=labels,
            ).set(net.optimizer.lr)
        grads = net.gradients()
        if grads:
            sq = 0.0
            for g in grads:
                sq += float(np.dot(g.ravel(), g.ravel()))
            reg.gauge(
                "nn_grad_norm",
                help="global L2 gradient norm of the last batch",
                labels=labels,
            ).set(np.sqrt(sq))
        return False
