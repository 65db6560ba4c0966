"""End-to-end workload generation properties."""

import numpy as np
import pytest

from repro.slurm.anvil import anvil_cluster
from repro.slurm.simulator import SUBMISSION_DTYPE
from repro.workload.generator import (
    DEFAULT_PARTITION_SHARES,
    WorkloadConfig,
    generate_submissions,
)


@pytest.fixture(scope="module")
def generated():
    cfg = WorkloadConfig(n_jobs=8000, seed=5, cluster_scale=0.05)
    cluster = anvil_cluster(cfg.cluster_scale)
    table, pop = generate_submissions(cfg, cluster)
    return cfg, cluster, table, pop


def test_exact_job_count(generated):
    cfg, _, table, _ = generated
    assert len(table) == cfg.n_jobs
    assert table.dtype == SUBMISSION_DTYPE


def test_sorted_by_submit_with_sequential_ids(generated):
    _, _, table, _ = generated
    assert np.all(np.diff(table["submit_time"]) >= 0)
    np.testing.assert_array_equal(table["job_id"], np.arange(1, len(table) + 1))


def test_partition_mix_matches_target(generated):
    _, cluster, table, _ = generated
    counts = np.bincount(table["partition"], minlength=len(cluster.partitions))
    mix = counts / counts.sum()
    target = np.array(
        [DEFAULT_PARTITION_SHARES[n] for n in cluster.partition_names]
    )
    # shared dominates and overall mix is within a few points.
    assert mix[cluster.partition_id("shared")] > 0.5
    np.testing.assert_allclose(mix, target, atol=0.1)


def test_eligibility_follows_submit(generated):
    _, _, table, _ = generated
    assert np.all(table["eligible_time"] >= table["submit_time"])
    delayed = table["eligible_time"] > table["submit_time"]
    assert 0.0 < delayed.mean() < 0.1


def test_bursts_create_identical_neighbours(generated):
    # The leakage hazard: many consecutive jobs share user+request exactly.
    _, _, table, _ = generated
    same = (
        (table["user_id"][1:] == table["user_id"][:-1])
        & (table["req_cpus"][1:] == table["req_cpus"][:-1])
        & (table["timelimit_min"][1:] == table["timelimit_min"][:-1])
    )
    assert same.mean() > 0.3


def test_requests_satisfiable(generated):
    _, cluster, table, _ = generated
    pool_ids = cluster.partition_pool_ids()
    caps = np.array([cluster.pools[i].total_cpus for i in pool_ids])
    assert np.all(table["req_cpus"] <= caps[table["partition"]])


def test_reproducibility():
    cfg = WorkloadConfig(n_jobs=500, seed=42)
    cluster = anvil_cluster(cfg.cluster_scale)
    a, _ = generate_submissions(cfg, cluster)
    b, _ = generate_submissions(cfg, cluster)
    for name in a.dtype.names:
        np.testing.assert_array_equal(a[name], b[name])


def test_n_jobs_validation():
    with pytest.raises(ValueError):
        generate_submissions(WorkloadConfig(n_jobs=0), anvil_cluster(0.05))


@pytest.mark.parametrize("load", [0.0, -1.0, float("nan"), float("inf")])
def test_load_validation(load):
    # Rejected up front: load = 0 divides the trace duration by zero, and
    # a negative load squeezes the whole trace into one hour, which the
    # simulator never finishes draining.
    with pytest.raises(ValueError, match="load"):
        generate_submissions(
            WorkloadConfig(n_jobs=100, load=load), anvil_cluster(0.05)
        )


def test_resolved_n_users():
    assert WorkloadConfig(n_jobs=1000).resolved_n_users() == 50
    assert WorkloadConfig(n_jobs=120_000).resolved_n_users() == 200
    assert WorkloadConfig(n_jobs=1000, n_users=7).resolved_n_users() == 7


def test_queue_time_distribution_shape(small_trace):
    """Fig. 2's regime: most jobs near zero, heavy right tail."""
    result, _ = small_trace
    q = result.queue_time_min
    assert np.mean(q < 10) > 0.5  # bulk is quick (congested test trace)
    assert q.max() > 60  # tail reaches hours
    assert np.median(q) < np.mean(q)  # right skew
