"""``FeaturePipeline.compute(rows=...)``: the requested rows only, bitwise
the full matrix's rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.pipeline import FeaturePipeline
from repro.features.rows import check_rows, group_rows
from repro.slurm.anvil import anvil_cluster

CLUSTER = anvil_cluster(scale=0.05)


def _edge_trace(seed, n, n_parts, n_users):
    """A trace on a coarse integer clock: eligibility times tie, some jobs
    start the instant they are eligible or wait for eligibility after
    submitting, some runs last zero seconds, priorities repeat, and small
    partitions hold a single job."""
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["user_id"] = rng.integers(0, n_users, n)
    rec["partition"] = rng.integers(0, n_parts, n)
    submit = np.sort(rng.integers(0, max(2, n // 3), n)).astype(np.float64)
    elig = submit + rng.integers(0, 3, n) * (rng.random(n) < 0.3)
    queue = rng.integers(0, 4, n) * (rng.random(n) < 0.5)
    run = rng.integers(0, 4, n)
    rec["submit_time"] = submit
    rec["eligible_time"] = elig
    rec["start_time"] = elig + queue
    rec["end_time"] = elig + queue + run
    rec["req_cpus"] = rng.integers(1, 64, n)
    rec["req_mem_gb"] = rng.uniform(0.1, 128, n)
    rec["req_nodes"] = rng.integers(1, 4, n)
    rec["timelimit_min"] = rng.choice([30.0, 60.0, 90.5], n)
    rec["priority"] = rng.integers(0, 3, n).astype(np.float64)
    order = np.argsort(elig, kind="stable")
    return JobSet(rec[order], tuple(CLUSTER.partition_names[:n_parts]))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    n_parts=st.integers(1, len(CLUSTER.partitions)),
    n_users=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_rows_equal_full_matrix_rows(seed, n, n_parts, n_users, data):
    jobs = _edge_trace(seed, n, n_parts, n_users)
    pred = np.random.default_rng(seed).uniform(0.5, 300, n)
    # Unsorted, repeated, possibly empty selections.
    idx = np.array(
        data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.intp
    )
    pipeline = FeaturePipeline(CLUSTER, user_window_s=5.0)
    full = pipeline.compute(jobs, pred_runtime_min=pred)
    part = pipeline.compute(jobs, pred_runtime_min=pred, rows=idx)
    assert part.X.shape == (len(idx), full.X.shape[1])
    np.testing.assert_array_equal(part.X, full.X[idx])
    np.testing.assert_array_equal(part.queue_time_min, full.queue_time_min[idx])


def test_rows_on_a_simulated_trace(trace_jobs, cluster):
    pipeline = FeaturePipeline(cluster)
    full = pipeline.compute(trace_jobs)
    idx = np.random.default_rng(3).choice(len(trace_jobs), 300)
    np.testing.assert_array_equal(
        pipeline.compute(trace_jobs, rows=idx).X, full.X[idx]
    )


@pytest.mark.parametrize(
    "rows",
    [[5], [-1], [0, 999], np.array([[0, 1]]), np.array([0.0, 1.0])],
    ids=["past-end", "negative", "one-bad", "2-d", "float"],
)
def test_bad_rows_rejected(rows):
    jobs = _edge_trace(0, 5, 2, 2)
    with pytest.raises(ValueError, match="rows"):
        FeaturePipeline(CLUSTER).compute(jobs, rows=rows)


def test_check_rows_defaults_to_every_job():
    np.testing.assert_array_equal(check_rows(None, 4), np.arange(4))
    assert check_rows([], 4).dtype == np.intp


def test_group_rows_maps_requested_rows_into_their_groups():
    key = np.array([2, 0, 2, 1, 0, 2])
    rows = np.array([5, 1, 5, 0])
    seen = {}
    for value, members, sel, local in group_rows(key, rows):
        np.testing.assert_array_equal(members, np.flatnonzero(key == value))
        np.testing.assert_array_equal(members[local], rows[sel])
        seen[int(value)] = sorted(sel.tolist())
    assert seen == {0: [1], 2: [0, 2, 3]}
