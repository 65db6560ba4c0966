"""A4 — §II/§V claims about the runtime model.

Two claims: (i) "it is important to have additional information regarding
when running jobs will finish" — i.e. the runtime model must beat the
scheduler's own assumption that jobs run to their limit (users use ~15 %
of requested walltime); (ii) §V's proposed extension — user-history
features — should improve the runtime model in its own (log-space) metric.
"""

import numpy as np

from benchmarks.conftest import emit, once
from repro.core.config import RuntimeModelConfig
from repro.core.runtime_model import RuntimePredictor
from repro.eval.report import format_table
from tests.oracles import exact_runtime_model


def test_a4_runtime_model_ablation(benchmark, bench_trace):
    result, _ = bench_trace
    jobs = result.jobs
    n = len(jobs) // 2
    train, test = jobs[:n], jobs[n:]
    actual_log = np.log1p(test.runtime_min)
    limit_log = np.log1p(test.column("timelimit_min"))

    def fit_all():
        base = RuntimePredictor(
            RuntimeModelConfig(n_estimators=30), seed=0
        ).fit(train)
        ext = RuntimePredictor(
            RuntimeModelConfig(n_estimators=30), seed=0, features="request+user"
        ).fit(train)
        with exact_runtime_model():
            exact = RuntimePredictor(
                RuntimeModelConfig(n_estimators=30), seed=0
            ).fit(train)
        return base, ext, exact

    base, ext, exact = once(benchmark, fit_all)

    def log_mae(pred_minutes):
        return float(np.mean(np.abs(np.log1p(pred_minutes) - actual_log)))

    err_limit = float(np.mean(np.abs(limit_log - actual_log)))
    err_base = log_mae(base.predict_minutes(test))
    err_ext = log_mae(ext.predict_minutes(test))
    err_exact = log_mae(exact.predict_minutes(test))
    util = float(np.mean(test.walltime_utilization))
    emit(
        "a4_runtime_model",
        "\n".join(
            [
                format_table(
                    ["runtime estimate", "log-MAE vs actual"],
                    [
                        ["requested timelimit (scheduler's view)", err_limit],
                        ["RF, request features (paper's model)", err_base],
                        ["RF + user history (§V extension)", err_ext],
                        ["RF, exact split search (test oracle)", err_exact],
                    ],
                    float_fmt="{:.4f}",
                ),
                f"mean walltime utilisation: {100 * util:.1f}%  (paper: ~15%)",
            ]
        ),
    )

    # (i) the learned model crushes the timelimit assumption;
    assert err_base < 0.7 * err_limit
    # (ii) user history never hurts, and utilisation is in the paper's regime.
    assert err_ext < err_base * 1.02
    assert 0.05 < util < 0.4
    # (iii) default histogram split search costs essentially no accuracy.
    assert err_base < err_exact * 1.02
