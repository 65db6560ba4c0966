"""Deployment-path features: future-blindness and offline equivalence.

The decisive property: for every job pending at a query instant, the
feature row computed from the *censored* trace (no starts/ends after
t_now) is identical to the row the offline training pipeline computes with
full hindsight — so the trained model serves unchanged at deployment and
the offline evaluation is honest about what deployment can know.
"""

import numpy as np
import pytest

from repro.core.training import build_feature_matrix
from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.live import live_features, mask_future, pending_at, running_at
from repro.features.pipeline import FeaturePipeline


def _query_times(trace_jobs, n=4):
    """A few instants where something is actually pending."""
    q = trace_jobs.queue_time_min
    waiting = np.flatnonzero(q > 5.0)
    rec = trace_jobs.records
    # Midpoints of some long waits: the job is pending right then.
    return [
        float(0.5 * (rec["eligible_time"][j] + rec["start_time"][j]))
        for j in waiting[:: max(1, len(waiting) // n)][:n]
    ]


def test_mask_future_censors_correctly(trace_jobs):
    t_now = float(np.median(trace_jobs.records["start_time"]))
    masked = mask_future(trace_jobs, t_now)
    rec = masked.records
    # No knowledge of future submissions.
    assert np.all(rec["submit_time"] <= t_now)
    # Everything that "happened" in the masked trace happened by t_now...
    started = rec["start_time"] <= t_now
    ended = rec["end_time"] <= t_now
    assert np.all(rec["start_time"][ended] <= t_now)
    # ...and unknown futures are far beyond any real timestamp.
    horizon = trace_jobs.records["end_time"].max()
    assert np.all(rec["start_time"][~started] > horizon)
    assert np.all(rec["end_time"][~ended] > horizon)


def test_pending_running_membership(trace_jobs):
    for t_now in _query_times(trace_jobs):
        pend = pending_at(trace_jobs, t_now)
        run = running_at(trace_jobs, t_now)
        assert len(np.intersect1d(pend, run)) == 0
        rec = trace_jobs.records
        assert np.all(rec["eligible_time"][pend] <= t_now)
        assert np.all(rec["start_time"][pend] > t_now)
        assert np.all(rec["start_time"][run] <= t_now)
        assert np.all(rec["end_time"][run] > t_now)


def test_live_rows_equal_offline_rows(small_trace, feature_matrix):
    """THE deployment guarantee: censored == hindsight, feature by feature."""
    result, cluster = small_trace
    fm, runtime = feature_matrix
    jobs = result.jobs
    pred = runtime.predict_minutes(jobs)
    for t_now in _query_times(jobs, n=3):
        X_live, positions = live_features(
            jobs, t_now, cluster, pred_runtime_min=pred
        )
        assert len(positions) > 0
        np.testing.assert_allclose(
            X_live,
            fm.X[positions],
            atol=1e-9,
            err_msg=f"live/offline feature mismatch at t={t_now}",
        )


def test_live_features_reject_empty(trace_jobs, cluster):
    with pytest.raises(ValueError, match="no jobs known"):
        live_features(trace_jobs, t_now=-1.0, cluster=cluster)


def test_pending_set_matches_masked_pipeline(trace_jobs, cluster):
    t_now = _query_times(trace_jobs, 1)[0]
    X_live, positions = live_features(trace_jobs, t_now, cluster)
    pend = pending_at(trace_jobs, t_now)
    np.testing.assert_array_equal(np.sort(positions), np.sort(pend))
    assert X_live.shape == (len(pend), 33)


def test_duplicate_job_id_maps_pending_row_to_its_own_position(cluster):
    """Two jobs share an id and only the first is pending at ``t_now``:
    its row must point back at the first job, not at the id's last use."""
    rec = np.zeros(3, dtype=JOB_DTYPE)
    rec["job_id"] = [7, 8, 7]
    rec["submit_time"] = rec["eligible_time"] = [0.0, 10.0, 20.0]
    rec["start_time"] = [100.0, 10.0, 20.0]
    rec["end_time"] = [200.0, 60.0, 30.0]
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["req_mem_gb"] = 1.0
    rec["timelimit_min"] = 60.0
    jobs = JobSet(rec, cluster.partition_names)
    t_now = 50.0
    np.testing.assert_array_equal(pending_at(jobs, t_now), [0])
    X_live, positions = live_features(jobs, t_now, cluster)
    np.testing.assert_array_equal(positions, [0])
    offline = FeaturePipeline(cluster).compute(jobs)
    np.testing.assert_array_equal(X_live, offline.X[positions])
