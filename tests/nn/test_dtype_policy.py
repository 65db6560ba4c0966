"""The network compute dtype and the allocation-free training contract.

Covers dtype validation, the absence of any environment or config knob
for it (networks compute in float32 unless built in float64 explicitly),
float32-vs-float64 numeric parity (hypothesis property + a trained-model
holdout comparison), the astype() switch, and the steady-state allocation
bound that the buffer-reuse tentpole exists to deliver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import build_parser
from repro.core import TroutConfig
from repro.nn import (
    Activation,
    Adam,
    Dense,
    Dropout,
    Sequential,
    SmoothL1Loss,
    Workspace,
    resolve_nn_dtype,
)
from repro.obs import tracing


# --------------------------------------------------------------------- #
# dtype selection
# --------------------------------------------------------------------- #
def test_resolve_default_is_float32():
    assert resolve_nn_dtype() == np.float32
    assert resolve_nn_dtype("float32") == np.float32
    assert resolve_nn_dtype(np.float64) == np.float64


def test_resolve_rejects_bad_values():
    for bad in ("float16", "int64", "bogus"):
        with pytest.raises(ValueError):
            resolve_nn_dtype(bad)


def test_sequential_dtype_flows_to_layers():
    net = Sequential([Dense(4, 8, seed=0), Activation("elu")], dtype="float64")
    assert net.dtype == np.float64
    assert all(p.dtype == np.float64 for p in net.parameters())
    # add() casts late-added layers too.
    net.add(Dense(8, 1, seed=1, dtype="float32"))
    assert net.layers[-1].W.dtype == np.float64


def test_nn_dtype_env_var_is_inert(monkeypatch):
    monkeypatch.setenv("REPRO_NN_DTYPE", "float64")
    net = Sequential([Dense(3, 2, seed=0)])
    assert net.dtype == np.float32
    assert net.layers[0].W.dtype == np.float32


def test_no_nn_dtype_config_or_flag():
    with pytest.raises(TypeError):
        TroutConfig(nn_dtype="float64")
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["train", "--trace", "t.swf", "--out", "m", "--nn-dtype", "float64"]
        )


def test_astype_switch_resets_state():
    net = Sequential([Dense(4, 8, seed=0), Activation("elu"), Dense(8, 1, seed=1)])
    net = net.astype("float64").compile(SmoothL1Loss(), Adam(lr=1e-2))
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(64, 4)), rng.normal(size=64)
    net.fit(X, y, epochs=2, batch_size=16, seed=0)
    assert net.optimizer._arena is not None  # warm
    net.astype("float32")
    assert all(p.dtype == np.float32 for p in net.parameters())
    assert net.optimizer._arena is None  # moments dropped with the old precision
    net.fit(X, y, epochs=2, batch_size=16, seed=0)  # still trainable
    assert net.predict(X).dtype == np.float32


# --------------------------------------------------------------------- #
# float32 vs float64 parity
# --------------------------------------------------------------------- #
def _twin_nets(widths, activation, seed):
    def build(dtype):
        layers = []
        w_in = widths[0]
        for i, w in enumerate(widths[1:-1]):
            layers += [Dense(w_in, w, seed=seed + i), Activation(activation)]
            w_in = w
        layers.append(Dense(w_in, widths[-1], seed=seed + len(widths)))
        return Sequential(layers, dtype=dtype)

    return build("float32"), build("float64")


@settings(max_examples=25, deadline=None)
@given(
    hidden=st.integers(min_value=2, max_value=24),
    activation=st.sampled_from(["relu", "elu", "tanh", "gelu", "leaky_relu"]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_forward_parity_float32_vs_float64(hidden, activation, seed):
    """Same seed -> float32 forward pass tracks the float64 reference."""
    net32, net64 = _twin_nets((5, hidden, 1), activation, seed)
    X = np.random.default_rng(seed).normal(size=(32, 5))
    p32 = net32.compile(SmoothL1Loss(), Adam()).predict(X)
    p64 = net64.compile(SmoothL1Loss(), Adam()).predict(X)
    assert p32.dtype == np.float32 and p64.dtype == np.float64
    np.testing.assert_allclose(p32, p64, rtol=1e-3, atol=1e-4)


def test_training_parity_holdout_mape():
    """Both precisions converge to the same solution on a smooth task:
    holdout MAPE within 2 % relative (the a13 gate's contract, in-tree)."""
    rng = np.random.default_rng(3)
    n = 2000
    X = rng.normal(size=(n, 6))
    w = rng.normal(size=6)
    y = np.log1p(np.abs(X @ w) * 20.0 + rng.gamma(2.0, 2.0, size=n))
    tr, te = slice(0, 1600), slice(1600, None)

    def mape(dtype):
        net = Sequential(
            [
                Dense(6, 32, seed=1),
                Activation("elu"),
                Dense(32, 16, seed=2),
                Activation("elu"),
                Dense(16, 1, seed=3),
            ],
            dtype=dtype,
        ).compile(SmoothL1Loss(), Adam(lr=1e-2))
        net.fit(X[tr], y[tr], epochs=40, batch_size=128, seed=0)
        pred = np.expm1(np.asarray(net.predict(X[te]), dtype=np.float64))
        truth = np.expm1(y[te])
        return float(np.mean(np.abs(pred - truth) / np.maximum(truth, 1e-9)))

    m32, m64 = mape("float32"), mape("float64")
    assert abs(m32 - m64) / m64 < 0.02


# --------------------------------------------------------------------- #
# allocation-free steady state
# --------------------------------------------------------------------- #
def test_steady_state_epochs_do_not_grow_buffers():
    """After the first (buffer-warming) epoch, per-epoch net heap-block
    deltas stay small and flat — no per-batch allocation churn."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4096, 16))
    y = rng.normal(size=4096)
    net = Sequential(
        [
            Dense(16, 32, seed=0),
            Activation("elu"),
            Dropout(0.1, seed=1),
            Dense(32, 1, seed=2),
        ]
    ).compile(SmoothL1Loss(), Adam(lr=1e-3))
    with tracing.span("alloc_probe") as root:
        net.fit(X, y, epochs=6, batch_size=256, seed=0)
    epochs = [c for c in root.children if c.name == "epoch"]
    assert len(epochs) == 6
    steady = [e.alloc_blocks for e in epochs[1:]]
    # ~64 batches/epoch: churn would show up as thousands of blocks.  The
    # bound is deliberately loose (History dicts, logs, GC timing jitter).
    assert max(steady) < 1500, f"steady-state allocations too high: {steady}"


def test_workspace_reuses_and_bounds_buffers():
    ws = Workspace(max_entries=4)
    a = ws.buf("x", (8, 8), np.float32)
    assert ws.buf("x", (8, 8), np.float32) is a  # same key -> same buffer
    assert ws.buf("x", (8, 8), np.float64) is not a  # dtype in the key
    for i in range(6):  # exceed max_entries -> wholesale clear, no error
        ws.buf("x", (i + 1, 2), np.float32)
    assert len(ws) <= 4
    assert ws.nbytes > 0
    ws.clear()
    assert len(ws) == 0


def test_alloc_gauge_published(monkeypatch):
    from repro.obs import metrics

    metrics.set_enabled(True)
    reg = metrics.get_registry()
    rng = np.random.default_rng(0)
    net = Sequential([Dense(4, 8, seed=0), Dense(8, 1, seed=1)]).compile(
        SmoothL1Loss(), Adam()
    )
    net.fit(rng.normal(size=(128, 4)), rng.normal(size=128), epochs=2, seed=0)
    gauge = reg.gauge(
        "nn_alloc_blocks_per_epoch",
        help="net heap-block delta over the last training epoch",
        labels={"dtype": net.dtype.name},
    )
    assert np.isfinite(gauge.value)
