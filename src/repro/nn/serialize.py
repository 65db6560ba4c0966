"""Network serialisation to ``.npz``.

The architecture is stored as a JSON config string alongside the weight
arrays (and batch-norm running statistics), so a trained TROUT model
round-trips through a single file the CLI can load.

The compute dtype round-trips too: ``save_network`` records the net's
dtype next to the layer configs, and ``load_network`` rebuilds in the
saved dtype — a float32-trained net loads back float32 and predicts
bit-identically, a float64 one loads back float64.  Legacy checkpoints
(plain-list config, all arrays float64) load as float64.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn.layers import Activation, BatchNorm1d, Dense, Dropout, Layer
from repro.nn.network import Sequential

__all__ = ["save_network", "load_network"]


def _layer_from_config(cfg: dict) -> Layer:
    kind = cfg.get("kind")
    if kind == "dense":
        return Dense(cfg["in_features"], cfg["out_features"], init=cfg.get("init", "he_normal"), seed=0)
    if kind == "activation":
        kwargs = {k: v for k, v in cfg.items() if k not in ("kind", "name")}
        return Activation(cfg["name"], **kwargs)
    if kind == "dropout":
        return Dropout(cfg["p"], seed=0)
    if kind == "batchnorm1d":
        return BatchNorm1d(cfg["n_features"], momentum=cfg["momentum"], eps=cfg["eps"])
    raise ValueError(f"unknown layer kind {kind!r} in saved network")


def save_network(net: Sequential, path: str | Path) -> None:
    """Write architecture + dtype + weights (+ batchnorm state) to ``path``."""
    path = Path(path)
    configs = []
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        cfg = layer.config()
        if not cfg:
            raise ValueError(
                f"layer {type(layer).__name__} has no config and cannot be saved"
            )
        configs.append(cfg)
        for j, p in enumerate(layer.params):
            arrays[f"param_{i}_{j}"] = p
        if isinstance(layer, BatchNorm1d):
            for j, s in enumerate(layer.state_arrays):
                arrays[f"state_{i}_{j}"] = s
    payload = {"layers": configs, "dtype": net.dtype.name}
    arrays["__config__"] = np.frombuffer(
        json.dumps(payload).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_network(path: str | Path) -> Sequential:
    """Rebuild a :func:`save_network` file in the dtype it was saved in.
    Loss/optimiser are not saved; call :meth:`Sequential.compile` again
    before further training.
    """
    path = Path(path)
    with np.load(path) as data:
        payload = json.loads(bytes(data["__config__"].tolist()).decode("utf-8"))
        if isinstance(payload, dict):
            configs = payload["layers"]
            dtype = payload["dtype"]
        else:  # legacy plain-list config: every array was float64
            configs = payload
            dtype = "float64"
        net = Sequential([_layer_from_config(c) for c in configs], dtype=dtype)
        for i, layer in enumerate(net.layers):
            for j, p in enumerate(layer.params):
                saved = data[f"param_{i}_{j}"]
                if saved.shape != p.shape:
                    raise ValueError(
                        f"weight shape mismatch at layer {i}: saved "
                        f"{saved.shape}, built {p.shape}"
                    )
                p[...] = saved
            if isinstance(layer, BatchNorm1d):
                for j, s in enumerate(layer.state_arrays):
                    s[...] = data[f"state_{i}_{j}"]
    return net
