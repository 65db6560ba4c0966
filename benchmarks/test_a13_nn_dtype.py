"""A13 — float32 compute vs the float64 reference for the NN.

The allocation-free float32 path exists purely for speed, so this bench
measures the trade where it matters: a regression-scale training run
(``REPRO_BENCH_NN_ROWS`` rows, default 30 000, of a synthetic log1p
queue-time task) through the production architecture (128/64/32 ELU,
smooth-L1, Adam).  Gates:

- float32 epochs must be at least 1.5× faster than float64 (median of
  the steady-state epochs, timed via the training span tree);
- steady-state epochs must stay allocation-flat: after the first
  (buffer-warming) epoch the median net heap-block delta per epoch is
  bounded, i.e. no per-batch array churn;
- the float32 holdout MAPE (expm1-decoded) must stay within 2 %
  relative of the float64 reference.
"""

import os
import statistics

import numpy as np

from benchmarks.conftest import emit, once
from repro.eval.report import format_table
from repro.nn import Activation, Adam, Dense, Dropout, Sequential, SmoothL1Loss
from repro.obs import tracing

EPOCHS = 25
BATCH = 256


def _data(n_rows, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, 33))
    w = rng.normal(size=33)
    queue_min = np.abs(X @ w) * 30.0 + rng.gamma(2.0, 5.0, size=n_rows)
    y = np.log1p(queue_min)
    n_tr = int(n_rows * 0.8)
    return X[:n_tr], y[:n_tr], X[n_tr:], y[n_tr:]


def _build(dtype):
    # Mirrors RegressorConfig's production stack: 128/64/32 ELU with
    # dropout 0.1 after every hidden layer, smooth-L1, Adam at 1e-3.
    layers = []
    w_in = 33
    for i, width in enumerate((128, 64, 32)):
        layers += [
            Dense(w_in, width, seed=2 * i + 1),
            Activation("elu"),
            Dropout(0.1, seed=2 * i + 2),
        ]
        w_in = width
    layers.append(Dense(w_in, 1, seed=9))
    return Sequential(layers, dtype=dtype).compile(SmoothL1Loss(), Adam(lr=1e-3))


def _train_and_measure(dtype, data):
    Xtr, ytr, Xte, yte = data
    net = _build(dtype)
    with tracing.span("a13_fit") as root:
        net.fit(Xtr, ytr, epochs=EPOCHS, batch_size=BATCH, seed=0)
    epochs = [c for c in root.children if c.name == "epoch"]
    assert len(epochs) == EPOCHS
    # Skip the first epoch in both measures: it pays buffer warm-up and
    # one-time setup that the steady state, by definition, does not.
    steady = epochs[1:]
    epoch_s = statistics.median(e.elapsed for e in steady)
    alloc_blocks = statistics.median(e.alloc_blocks for e in steady)
    pred = np.expm1(np.asarray(net.predict(Xte), dtype=np.float64))
    truth = np.expm1(yte)
    mape = float(
        np.mean(np.abs(pred - truth) / np.maximum(truth, 1e-9)) * 100.0
    )
    return {"epoch_s": epoch_s, "alloc_blocks": alloc_blocks, "mape": mape}


def test_a13_nn_dtype(benchmark):
    n_rows = int(os.environ.get("REPRO_BENCH_NN_ROWS", 30_000))
    data = _data(n_rows)

    def run():
        return {d: _train_and_measure(d, data) for d in ("float64", "float32")}

    res = once(benchmark, run)
    f32, f64 = res["float32"], res["float64"]
    speedup = f64["epoch_s"] / f32["epoch_s"]
    rel = f32["mape"] / f64["mape"] - 1.0

    emit(
        "a13_nn_dtype",
        "\n".join(
            [
                f"rows={n_rows}  epochs={EPOCHS}  batch={BATCH}  "
                "arch=33-128-64-32-1 (elu, smooth_l1, adam)",
                format_table(
                    [
                        "dtype",
                        "epoch (s)",
                        "alloc blocks/epoch",
                        "holdout MAPE (%)",
                    ],
                    [
                        [
                            "float64",
                            f64["epoch_s"],
                            f64["alloc_blocks"],
                            f64["mape"],
                        ],
                        [
                            "float32",
                            f32["epoch_s"],
                            f32["alloc_blocks"],
                            f32["mape"],
                        ],
                    ],
                    float_fmt="{:.3f}",
                ),
                f"float32 epoch speedup: {speedup:.2f}x",
                f"float32 MAPE delta vs float64: {100 * rel:+.2f}% relative",
            ]
        ),
    )

    assert speedup >= 1.5
    # Steady-state epochs must not churn arrays: the median per-epoch net
    # heap-block delta stays far below one block per batch-step array.
    assert f32["alloc_blocks"] < 4096
    assert abs(rel) <= 0.02
