"""Random-forest runtime predictor."""

import numpy as np
import pytest

from repro.core.config import RuntimeModelConfig
from repro.core.runtime_model import RuntimePredictor
from tests.oracles import exact_runtime_model


def test_predictions_within_limits(trace_jobs):
    rt = RuntimePredictor(RuntimeModelConfig(n_estimators=10), seed=0)
    rt.fit(trace_jobs[:2000])
    pred = rt.predict_minutes(trace_jobs)
    assert pred.shape == (len(trace_jobs),)
    assert np.all(pred >= 0)
    assert np.all(pred <= trace_jobs.column("timelimit_min") + 1e-9)


def test_beats_timelimit_baseline(trace_jobs):
    """The whole point: requests overestimate (~15 % used), so even a basic
    RF beats assuming jobs run to their limit."""
    rt = RuntimePredictor(RuntimeModelConfig(n_estimators=20), seed=0)
    n = len(trace_jobs) // 2
    rt.fit(trace_jobs[:n])
    test = trace_jobs[n:]
    pred = rt.predict_minutes(test)
    actual = test.runtime_min
    limit = test.column("timelimit_min")
    mae_model = np.mean(np.abs(pred - actual))
    mae_limit = np.mean(np.abs(limit - actual))
    assert mae_model < 0.6 * mae_limit


def test_needs_minimum_data(trace_jobs):
    with pytest.raises(ValueError):
        RuntimePredictor().fit(trace_jobs[:5])


def test_unfitted_raises(trace_jobs):
    with pytest.raises(RuntimeError):
        RuntimePredictor().predict_minutes(trace_jobs)


def test_design_matrix_logged(trace_jobs):
    X = RuntimePredictor().design_matrix(trace_jobs[:100])
    assert X.shape == (100, 7)
    np.testing.assert_allclose(
        X[:, 0], np.log1p(trace_jobs[:100].column("req_cpus").astype(float))
    )


def test_user_history_mode_shapes_and_gain(trace_jobs):
    """§V extension: user history helps in the model's own (log) metric."""
    n = len(trace_jobs) // 2
    train, test = trace_jobs[:n], trace_jobs[n:]
    base = RuntimePredictor(RuntimeModelConfig(n_estimators=20), seed=0).fit(train)
    ext = RuntimePredictor(
        RuntimeModelConfig(n_estimators=20), seed=0, features="request+user"
    ).fit(train)
    X = ext.design_matrix(test)
    assert X.shape == (len(test), 9)  # 7 request + 2 user columns
    actual_log = np.log1p(test.runtime_min)
    err_base = float(np.mean(np.abs(np.log1p(base.predict_minutes(test)) - actual_log)))
    err_ext = float(np.mean(np.abs(np.log1p(ext.predict_minutes(test)) - actual_log)))
    assert err_ext < err_base * 1.02  # at worst break-even, usually better


def test_user_expanding_stats_causal(trace_jobs):
    """History features must use strictly earlier jobs only."""
    from repro.core.runtime_model import user_expanding_stats

    sub = trace_jobs[:500]
    stats = user_expanding_stats(sub)
    rec = sub.records
    util = sub.walltime_utilization
    # For each user's first job (by submit), the feature is the prior.
    for user in np.unique(rec["user_id"])[:5]:
        g = np.flatnonzero(rec["user_id"] == user)
        first = g[np.argmin(rec["submit_time"][g])]
        assert stats["user_mean_utilization"][first] == 0.15
        # Second job sees exactly the first job's utilisation.
        if len(g) >= 2:
            order = g[np.argsort(rec["submit_time"][g], kind="stable")]
            np.testing.assert_allclose(
                stats["user_mean_utilization"][order[1]], util[order[0]]
            )


def test_feature_mode_validation():
    with pytest.raises(ValueError, match="features"):
        RuntimePredictor(features="nope")


def test_hist_mape_within_2pct_of_exact(trace_jobs):
    """Quality gate for the histogram split search: on the synthetic Anvil
    workload, the runtime model's holdout MAPE must stay within 2 %
    *relative* of a forest grown by the exact oracle."""
    from repro.eval.metrics import mean_absolute_percentage_error

    n = len(trace_jobs) // 2
    train, test = trace_jobs[:n], trace_jobs[n:]
    # Evaluate where the paper's metric is meaningful (non-trivial runtime).
    keep = test.runtime_min >= 1.0
    actual = test.runtime_min[keep]

    def holdout_mape():
        rt = RuntimePredictor(RuntimeModelConfig(n_estimators=20), seed=0)
        pred = rt.fit(train).predict_minutes(test)
        return mean_absolute_percentage_error(actual, pred[keep])

    hist = holdout_mape()
    with exact_runtime_model():
        exact = holdout_mape()
    assert hist <= exact * 1.02
