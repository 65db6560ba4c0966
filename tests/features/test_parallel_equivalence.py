"""Serial-vs-parallel equivalence harness.

The paper's chunked feature engineering is refactored to fan out across
processes; parallel refactors of numeric code silently drift, so these
property tests pin the contract: for ANY trace, chunk size and overlap,
``n_jobs=4`` produces **byte-identical** results to ``n_jobs=1`` at every
level — chunked forest stabs, partition snapshots, the full Table II
matrix, and the deployment-time (``features.live``) path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.interval_tree import ChunkedIntervalForest
from repro.features.live import live_features
from repro.features.pipeline import FeaturePipeline
from repro.features.snapshots import SNAPSHOT_KEYS, partition_snapshots
from repro.slurm.anvil import ANVIL_PARTITIONS, anvil_cluster

# Keep examples modest: every parallel case forks a real process pool.
EQUIV_SETTINGS = dict(max_examples=8, deadline=None)


@st.composite
def chunking(draw) -> tuple[int, int]:
    """A (chunk_size, overlap) pair with 0 <= overlap < chunk_size."""
    chunk_size = draw(st.integers(min_value=2, max_value=40))
    overlap = draw(st.integers(min_value=0, max_value=chunk_size - 1))
    return chunk_size, overlap


@st.composite
def intervals(draw, max_n: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """Random half-open interval sets, empty intervals included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    t = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
    starts = np.array(draw(st.lists(t, min_size=n, max_size=n)))
    lengths = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    return starts, starts + lengths


@st.composite
def traces(draw, max_n: int = 60) -> JobSet:
    """Random small JobSets over the Anvil partition vocabulary."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(1, n + 1)
    rec["user_id"] = rng.integers(0, 5, n)
    rec["partition"] = rng.integers(0, len(ANVIL_PARTITIONS), n)
    submit = np.sort(rng.uniform(0.0, 5e4, n))
    wait = rng.exponential(600.0, n)
    run = rng.exponential(1800.0, n)
    rec["submit_time"] = submit
    rec["eligible_time"] = submit + rng.uniform(0.0, 10.0, n)
    rec["start_time"] = rec["eligible_time"] + wait
    rec["end_time"] = rec["start_time"] + run
    rec["req_cpus"] = rng.integers(1, 128, n)
    rec["req_mem_gb"] = rng.uniform(1.0, 256.0, n)
    rec["req_nodes"] = rng.integers(1, 4, n)
    rec["timelimit_min"] = rng.uniform(10.0, 2880.0, n)
    rec["priority"] = rng.integers(0, 10_000, n).astype(np.float64)
    return JobSet(rec, ANVIL_PARTITIONS)


@given(iv=intervals(), ck=chunking())
@settings(**EQUIV_SETTINGS)
def test_forest_stab_parallel_equivalence(iv, ck):
    starts, ends = iv
    chunk_size, overlap = ck
    ts = np.concatenate([starts, ends - 0.5])
    serial = ChunkedIntervalForest(starts, ends, chunk_size, overlap, n_jobs=1)
    par = ChunkedIntervalForest(starts, ends, chunk_size, overlap, n_jobs=4)
    assert serial.n_trees == par.n_trees
    iv_s, ptr_s = serial.stab_batch(ts)
    iv_p, ptr_p = par.stab_batch(ts)
    assert iv_s.tobytes() == iv_p.tobytes()
    assert ptr_s.tobytes() == ptr_p.tobytes()


@given(jobs=traces(), ck=chunking())
@settings(**EQUIV_SETTINGS)
def test_snapshots_parallel_equivalence(jobs, ck):
    chunk_size, overlap = ck
    serial = partition_snapshots(
        jobs, chunk_size=chunk_size, overlap=overlap, n_jobs=1
    )
    par = partition_snapshots(
        jobs, chunk_size=chunk_size, overlap=overlap, n_jobs=4
    )
    for key in SNAPSHOT_KEYS:
        assert serial[key].tobytes() == par[key].tobytes(), key


@given(jobs=traces(), ck=chunking())
@settings(**EQUIV_SETTINGS)
def test_pipeline_parallel_equivalence(jobs, ck):
    chunk_size, overlap = ck
    cluster = anvil_cluster(scale=0.05)
    kw = dict(chunk_size=chunk_size, overlap=overlap)
    fm_s = FeaturePipeline(cluster, n_jobs=1, **kw).compute(jobs)
    fm_p = FeaturePipeline(cluster, n_jobs=4, **kw).compute(jobs)
    assert fm_s.X.tobytes() == fm_p.X.tobytes()
    assert fm_s.names == fm_p.names


@given(jobs=traces(max_n=40), ck=chunking())
@settings(**EQUIV_SETTINGS)
def test_live_path_parallel_equivalence(jobs, ck):
    chunk_size, overlap = ck
    cluster = anvil_cluster(scale=0.05)
    rec = jobs.records
    # An instant with at least one known job; median keeps both pending and
    # running sets non-trivial in most draws.
    t_now = float(np.median(rec["eligible_time"]))
    if not np.any(rec["submit_time"] <= t_now):
        t_now = float(rec["submit_time"].max())
    kw = dict(chunk_size=chunk_size, overlap=overlap)
    X_s, pos_s = live_features(
        jobs, t_now, cluster, pipeline=FeaturePipeline(cluster, n_jobs=1, **kw)
    )
    X_p, pos_p = live_features(
        jobs, t_now, cluster, pipeline=FeaturePipeline(cluster, n_jobs=4, **kw)
    )
    assert X_s.tobytes() == X_p.tobytes()
    np.testing.assert_array_equal(pos_s, pos_p)


def test_n_jobs_env_var_is_inert(monkeypatch):
    """Featurization is serial unless the caller passes ``n_jobs``; the
    environment has no say, not even a malformed value."""
    monkeypatch.setenv("REPRO_N_JOBS", "abc")
    cluster = anvil_cluster(scale=0.05)
    assert FeaturePipeline(cluster).n_jobs == 1
    assert FeaturePipeline(cluster, n_jobs=3).n_jobs == 3


def test_effective_pipeline_trace_equivalence(trace_jobs, cluster):
    """One realistic (simulator-generated) trace through the full pipeline
    at paper-style chunking, serial vs parallel."""
    sub = trace_jobs[: min(len(trace_jobs), 3_000)]
    kw = dict(chunk_size=500, overlap=50)
    fm_s = FeaturePipeline(cluster, n_jobs=1, **kw).compute(sub)
    fm_p = FeaturePipeline(cluster, n_jobs=4, **kw).compute(sub)
    assert fm_s.X.tobytes() == fm_p.X.tobytes()
    assert fm_s.queue_time_min.tobytes() == fm_p.queue_time_min.tobytes()
