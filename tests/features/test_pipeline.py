"""Table II pipeline assembly."""

import numpy as np
import pytest

from repro.features.names import FEATURE_GROUPS, FEATURE_NAMES, feature_index
from repro.features.pipeline import FeaturePipeline
from repro.features.static_specs import static_partition_features
from repro.obs import metrics, tracing


def test_feature_vocabulary_is_33():
    assert len(FEATURE_NAMES) == 33
    assert len(set(FEATURE_NAMES)) == 33
    assert sum(len(g) for g in FEATURE_GROUPS.values()) == 33


def test_feature_index_lookup():
    assert feature_index("priority") == 0
    assert FEATURE_NAMES[feature_index("pred_runtime")] == "pred_runtime"
    with pytest.raises(KeyError):
        feature_index("nope")


def test_pipeline_shapes_and_finiteness(trace_jobs, cluster):
    fm = FeaturePipeline(cluster).compute(trace_jobs)
    assert fm.X.shape == (len(trace_jobs), 33)
    assert np.all(np.isfinite(fm.X))
    assert fm.names == FEATURE_NAMES
    assert len(fm.queue_time_min) == len(trace_jobs)
    assert fm.log_transformed


def test_pipeline_raw_mode(trace_jobs, cluster):
    raw = FeaturePipeline(cluster, log_transform=False).compute(trace_jobs)
    logd = FeaturePipeline(cluster).compute(trace_jobs)
    np.testing.assert_allclose(np.log1p(np.maximum(raw.X, 0)), logd.X, atol=1e-9)


def test_request_columns_match_records(trace_jobs, cluster):
    fm = FeaturePipeline(cluster, log_transform=False).compute(trace_jobs)
    np.testing.assert_allclose(
        fm.column("req_cpus"), trace_jobs.column("req_cpus").astype(float)
    )
    np.testing.assert_allclose(
        fm.column("timelimit_raw"), trace_jobs.column("timelimit_min")
    )
    np.testing.assert_allclose(fm.column("priority"), trace_jobs.column("priority"))


def test_static_specs_broadcast(trace_jobs, cluster):
    cols = static_partition_features(trace_jobs, cluster)
    specs = cluster.partition_specs()
    p = trace_jobs.column("partition").astype(int)
    np.testing.assert_allclose(cols["par_total_cpu"], specs["total_cpus"][p])
    # Every partition's nodes positive.
    assert np.all(cols["par_total_nodes"] > 0)


def test_pred_runtime_fallback_is_timelimit(trace_jobs, cluster):
    fm = FeaturePipeline(cluster, log_transform=False).compute(trace_jobs)
    np.testing.assert_allclose(fm.column("pred_runtime"), trace_jobs.column("timelimit_min"))


def test_pred_runtime_misalignment_rejected(trace_jobs, cluster):
    with pytest.raises(ValueError):
        FeaturePipeline(cluster).compute(trace_jobs, pred_runtime_min=np.ones(3))


def test_empty_trace_rejected(cluster):
    from repro.data.schema import JobSet

    with pytest.raises(ValueError):
        FeaturePipeline(cluster).compute(JobSet.empty(cluster.partition_names))


def test_feature_matrix_column_accessor(feature_matrix):
    fm, _ = feature_matrix
    np.testing.assert_array_equal(fm.column("priority"), fm.X[:, 0])
    assert len(fm) == len(fm.X)


def test_user_window_configurable(trace_jobs, cluster):
    """§V: the user-history window can match the fair-share period."""
    import pytest as _pytest

    day = FeaturePipeline(cluster, log_transform=False).compute(trace_jobs)
    week = FeaturePipeline(
        cluster, log_transform=False, user_window_s=7 * 24 * 3600.0
    ).compute(trace_jobs)
    # A wider window can only see more history.
    assert (
        week.column("user_jobs_past_day").sum()
        >= day.column("user_jobs_past_day").sum()
    )
    with _pytest.raises(ValueError):
        FeaturePipeline(cluster, user_window_s=0.0)


def test_compute_publishes_the_featurize_telemetry(trace_jobs, cluster):
    """The stage spans and the row counter are read by benchmarks and the
    timing report: ``featurize`` holds ``snapshots``, ``user_history`` and
    ``assemble``, and every cold build counts its rows."""
    jobs = trace_jobs[:500]
    rows = metrics.get_registry().counter("featurize_rows_total")
    before = rows.value
    with tracing.span("caller") as caller:
        fm = FeaturePipeline(cluster).compute(jobs)
    (featurize,) = caller.children
    assert featurize.name == "featurize"
    assert featurize.elapsed > 0
    stages = [child.name for child in featurize.children]
    for stage in ("snapshots", "user_history", "assemble"):
        assert stage in stages
    assert set(fm.timings) >= {"snapshots", "user_history", "assemble", "total"}
    assert rows.value - before == len(jobs)
