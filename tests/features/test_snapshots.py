"""Partition snapshot aggregates vs a brute-force reference and the
chunked interval-forest oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.snapshots import SNAPSHOT_KEYS, partition_snapshots
from tests.oracles.interval_tree import forest_snapshots


def _trace(n=60, seed=0, n_parts=2):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["partition"] = rng.integers(0, n_parts, n)
    elig = np.sort(rng.uniform(0, 500, n))
    queue = rng.exponential(40, n) * (rng.random(n) < 0.6)
    run = rng.exponential(60, n) + 1
    rec["submit_time"] = elig
    rec["eligible_time"] = elig
    rec["start_time"] = elig + queue
    rec["end_time"] = elig + queue + run
    rec["req_cpus"] = rng.integers(1, 64, n)
    rec["req_mem_gb"] = rng.uniform(1, 128, n)
    rec["req_nodes"] = rng.integers(1, 4, n)
    rec["timelimit_min"] = rng.choice([30, 60, 240], n)
    rec["priority"] = rng.uniform(0, 1000, n)
    return JobSet(rec, tuple(f"p{i}" for i in range(n_parts)))


def _brute(jobs, pred):
    rec = jobs.records
    n = len(jobs)
    out = {k: np.zeros(n) for k in SNAPSHOT_KEYS}
    for j in range(n):
        t = rec["eligible_time"][j]
        p = rec["partition"][j]
        for i in range(n):
            if i == j or rec["partition"][i] != p:
                continue
            pending = rec["eligible_time"][i] <= t < rec["start_time"][i]
            running = rec["start_time"][i] <= t < rec["end_time"][i]
            if pending:
                out["par_jobs_queue"][j] += 1
                out["par_cpus_queue"][j] += rec["req_cpus"][i]
                out["par_mem_queue"][j] += rec["req_mem_gb"][i]
                out["par_nodes_queue"][j] += rec["req_nodes"][i]
                out["par_timelimit_queue"][j] += rec["timelimit_min"][i]
                out["par_queue_pred_timelimit"][j] += pred[i]
                if rec["priority"][i] > rec["priority"][j]:
                    out["par_jobs_ahead"][j] += 1
                    out["par_cpus_ahead"][j] += rec["req_cpus"][i]
                    out["par_mem_ahead"][j] += rec["req_mem_gb"][i]
                    out["par_nodes_ahead"][j] += rec["req_nodes"][i]
                    out["par_timelimit_ahead"][j] += rec["timelimit_min"][i]
            if running:
                out["par_jobs_running"][j] += 1
                out["par_cpus_running"][j] += rec["req_cpus"][i]
                out["par_mem_running"][j] += rec["req_mem_gb"][i]
                out["par_nodes_running"][j] += rec["req_nodes"][i]
                out["par_timelimit_running"][j] += rec["timelimit_min"][i]
                out["par_running_pred_timelimit"][j] += pred[i]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshots_match_bruteforce(seed):
    jobs = _trace(seed=seed)
    rng = np.random.default_rng(seed + 99)
    pred = rng.uniform(1, 100, len(jobs))
    got = partition_snapshots(jobs, pred_runtime_min=pred)
    want = _brute(jobs, pred)
    for key in SNAPSHOT_KEYS:
        np.testing.assert_allclose(got[key], want[key], err_msg=key, atol=1e-9)


def _edge_trace(seed, n, n_parts):
    """A trace on a coarse integer clock, so eligibility times tie, some
    jobs start the instant they are eligible, some runs last zero seconds,
    priorities repeat and small partitions hold a single job."""
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["partition"] = rng.integers(0, n_parts, n)
    elig = np.sort(rng.integers(0, max(2, n // 3), n)).astype(np.float64)
    queue = rng.integers(0, 4, n) * (rng.random(n) < 0.5)
    run = rng.integers(0, 4, n)
    rec["submit_time"] = elig
    rec["eligible_time"] = elig
    rec["start_time"] = elig + queue
    rec["end_time"] = elig + queue + run
    rec["req_cpus"] = rng.integers(1, 64, n)
    rec["req_mem_gb"] = rng.uniform(0.1, 128, n)
    rec["req_nodes"] = rng.integers(1, 4, n)
    rec["timelimit_min"] = rng.choice([30.0, 60.0, 90.5], n)
    rec["priority"] = rng.integers(0, 3, n).astype(np.float64)
    return JobSet(rec, tuple(f"p{i}" for i in range(n_parts)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    n_parts=st.integers(1, 5),
    chunk=st.integers(2, 40),
)
@settings(max_examples=60, deadline=None)
def test_snapshots_bitwise_equal_forest_oracle(seed, n, n_parts, chunk):
    """Range expansion reproduces the chunked-forest aggregates bit for
    bit, float sums included (same per-query summation order)."""
    jobs = _edge_trace(seed, n, n_parts)
    pred = np.random.default_rng(seed).uniform(0.5, 300, n)
    got = partition_snapshots(jobs, pred_runtime_min=pred)
    want = forest_snapshots(
        jobs, pred_runtime_min=pred, chunk_size=chunk, overlap=chunk // 3
    )
    for key in SNAPSHOT_KEYS:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_ahead_subset_of_queue():
    jobs = _trace(n=100, seed=4)
    got = partition_snapshots(jobs)
    assert np.all(got["par_jobs_ahead"] <= got["par_jobs_queue"])
    assert np.all(got["par_cpus_ahead"] <= got["par_cpus_queue"] + 1e-9)


def test_zero_queue_jobs_see_no_self():
    # A job that starts instantly has an empty pending interval and must
    # not count itself anywhere.
    rec = np.zeros(1, dtype=JOB_DTYPE)
    rec["end_time"] = 10.0
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["req_mem_gb"] = rec["timelimit_min"] = 1.0
    got = partition_snapshots(JobSet(rec, ("p0",)))
    for key in ("par_jobs_queue", "par_jobs_ahead", "par_jobs_running"):
        assert got[key][0] == 0.0


def test_pred_runtime_shape_checked():
    jobs = _trace(n=10)
    with pytest.raises(ValueError):
        partition_snapshots(jobs, pred_runtime_min=np.ones(3))
