"""A from-scratch feed-forward neural-network framework on NumPy.

Substitutes for PyTorch in the reproduction, holding only what the
paper's two networks train with: dense layers, the ELU activation (the
other activations stay for the planned activation search), inverted
dropout, batch normalisation (tested and rejected in the paper — kept for
the ablation), the smooth-L1 and BCE-with-logits losses, Adam, minibatch
training with early stopping, and ``.npz`` serialisation.  Gradients are
exact and checked against finite differences by the test suite.

All math is batched NumPy — forward/backward touch no per-sample Python
loops, per the hpc-parallel vectorisation discipline.  Networks compute
in **float32** for speed; **float64 is the reference path**, reached only
by constructing it explicitly (``Sequential(dtype="float64")`` or
``net.astype("float64")``; see :mod:`repro.nn.dtypes`).  Layers, losses
and the optimiser reuse preallocated buffers with ``out=`` ufunc calls,
so a steady-state training step allocates nothing.
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
from repro.nn.callbacks import EarlyStopping, History, MetricsCallback
from repro.nn.dtypes import DEFAULT_NN_DTYPE, NN_DTYPES, Workspace, resolve_nn_dtype
from repro.nn.layers import Activation, BatchNorm1d, Dense, Dropout, Layer
from repro.nn.losses import BCEWithLogitsLoss, SmoothL1Loss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
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
    "SmoothL1Loss",
    "BCEWithLogitsLoss",
    "Adam",
    "Sequential",
    "EarlyStopping",
    "History",
    "MetricsCallback",
    "save_network",
    "load_network",
    "DEFAULT_NN_DTYPE",
    "NN_DTYPES",
    "Workspace",
    "resolve_nn_dtype",
]
