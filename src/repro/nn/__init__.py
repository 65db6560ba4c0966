"""A from-scratch feed-forward neural-network framework on NumPy.

Substitutes for PyTorch in the reproduction: dense layers, the activations
the paper evaluates (ELU chosen, ReLU and friends compared), inverted
dropout, batch normalisation (tested and rejected in the paper — kept for
the ablation), smooth-L1 / BCE-with-logits / MSE / MAE losses, Adam and
other optimisers, minibatch training with early stopping, and ``.npz``
serialisation.  Gradients are exact and property-tested against finite
differences (:mod:`repro.nn.gradcheck`).

All math is batched NumPy — forward/backward touch no per-sample Python
loops, per the hpc-parallel vectorisation discipline.  Networks compute
in **float32** for speed; **float64 is the reference path**, reached only
by constructing it explicitly (``Sequential(dtype="float64")`` or
``net.astype("float64")``; see :mod:`repro.nn.dtypes`).  Layers, losses
and optimisers reuse preallocated buffers with ``out=`` ufunc calls, so a
steady-state training step allocates nothing; gradient checking always
runs in float64.
"""

from repro.nn.activations import (
    ELU,
    GELU,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
    get_activation,
)
from repro.nn.callbacks import EarlyStopping, History, LRSchedule, MetricsCallback
from repro.nn.dtypes import DEFAULT_NN_DTYPE, NN_DTYPES, Workspace, resolve_nn_dtype
from repro.nn.layers import Activation, BatchNorm1d, Dense, Dropout, Layer
from repro.nn.losses import (
    BCEWithLogitsLoss,
    MAELoss,
    MSELoss,
    SmoothL1Loss,
    get_loss,
)
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam, AdamW, RMSProp, get_optimizer
from repro.nn.serialize import load_network, save_network

__all__ = [
    "ELU",
    "GELU",
    "Identity",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "get_activation",
    "Layer",
    "Dense",
    "Activation",
    "Dropout",
    "BatchNorm1d",
    "MSELoss",
    "MAELoss",
    "SmoothL1Loss",
    "BCEWithLogitsLoss",
    "get_loss",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "get_optimizer",
    "Sequential",
    "EarlyStopping",
    "History",
    "LRSchedule",
    "MetricsCallback",
    "save_network",
    "load_network",
    "DEFAULT_NN_DTYPE",
    "NN_DTYPES",
    "Workspace",
    "resolve_nn_dtype",
]
