"""A11 — the histogram split search against the exact oracle.

The product trees search splits over quantile-binned features, which
exists purely for speed; the exact sorted search is a test oracle
(``tests/oracles``).  This bench measures the trade at the runtime
model's real operating point: the A4-scale trace (``REPRO_BENCH_JOBS``
jobs) through :class:`RuntimePredictor` with the production
:class:`RuntimeModelConfig` (30 trees, depth 12).  Gates:

- the product forest must fit at least 5× faster than the exact one;
- its holdout MAPE must stay within 2 % relative of the exact forest's.

A gradient-boosting fit time is reported for context (the same binned
matrix serves both ensembles).  The oracle has no exact boosting, so that
row has no exact counterpart and no gate.
"""

import time

import numpy as np

from benchmarks.conftest import emit, once
from repro.core.config import RuntimeModelConfig
from repro.core.runtime_model import RuntimePredictor
from repro.eval.metrics import mean_absolute_percentage_error
from repro.eval.report import format_table
from repro.ml.boosting import GradientBoostingRegressor
from tests.oracles import exact_runtime_model


def test_a11_tree_hist(benchmark, bench_trace):
    result, _ = bench_trace
    jobs = result.jobs
    n = len(jobs) // 2
    train, test = jobs[:n], jobs[n:]
    keep = test.runtime_min >= 1.0
    actual = test.runtime_min[keep]

    def fit_and_score() -> tuple[float, float]:
        t0 = time.perf_counter()
        rt = RuntimePredictor(RuntimeModelConfig(), seed=0).fit(train)
        fit_s = time.perf_counter() - t0
        mape = mean_absolute_percentage_error(
            actual, rt.predict_minutes(test)[keep]
        )
        return fit_s, mape

    def run():
        with exact_runtime_model():
            exact = fit_and_score()
        return {"exact": exact, "hist": fit_and_score()}

    res = once(benchmark, run)

    # Context row: the boosting ensemble on the same design matrix.
    Xb = RuntimePredictor(RuntimeModelConfig(), seed=0).design_matrix(train)
    yb = np.log1p(np.maximum(train.runtime_min, 0.0))
    t0 = time.perf_counter()
    GradientBoostingRegressor(n_estimators=30, max_depth=6, seed=0).fit(Xb, yb)
    gb_s = time.perf_counter() - t0

    speedup = res["exact"][0] / res["hist"][0]
    rel = res["hist"][1] / res["exact"][1] - 1.0
    emit(
        "a11_tree_hist",
        "\n".join(
            [
                format_table(
                    ["model / split search", "fit (s)", "holdout MAPE (%)"],
                    [
                        ["forest, exact (oracle)", res["exact"][0], res["exact"][1]],
                        ["forest, hist", res["hist"][0], res["hist"][1]],
                        ["gbdt, hist", gb_s, "-"],
                    ],
                    float_fmt="{:.3f}",
                ),
                f"forest speedup (exact/hist): {speedup:.2f}x",
                f"hist MAPE delta vs exact: {100 * rel:+.2f}% relative",
            ]
        ),
    )

    assert speedup >= 5.0
    assert res["hist"][1] <= res["exact"][1] * 1.02
