"""Feature-cache behaviour, especially the failure paths.

The cache must never be able to make a run fail or return wrong data:
truncated files, corrupt bytes, stale version tags and racing writers all
degrade to a recompute (a miss), and a hit is byte-identical to the matrix
that was stored.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.cache import CACHE_VERSION, FeatureCache, content_key
from repro.features.pipeline import FeatureMatrix, FeaturePipeline


@pytest.fixture()
def cache(tmp_path):
    return FeatureCache(tmp_path / "feat")


@pytest.fixture(scope="module")
def computed(trace_jobs, cluster):
    """A small real matrix plus its cache key material."""
    jobs = trace_jobs[:800]
    pipeline = FeaturePipeline(cluster)
    fm = pipeline.compute(jobs)
    pred = jobs.records["timelimit_min"].astype(np.float64)
    key = content_key(jobs, pred, pipeline.signature())
    return jobs, pipeline, fm, key


def test_round_trip_bit_identical(cache, computed):
    _, _, fm, key = computed
    assert cache.load(key) is None  # cold
    cache.store(key, fm)
    hit = cache.load(key)
    assert hit is not None and hit.cache_hit
    assert hit.X.tobytes() == fm.X.tobytes()
    assert hit.queue_time_min.tobytes() == fm.queue_time_min.tobytes()
    assert hit.names == fm.names
    assert hit.log_transformed == fm.log_transformed
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.stores == 1 and cache.stats.invalid == 0


def test_pipeline_integration_hit(tmp_path, trace_jobs, cluster):
    jobs = trace_jobs[:500]
    cache = FeatureCache(tmp_path / "feat")
    pipeline = FeaturePipeline(cluster, cache=cache)
    cold = pipeline.compute(jobs)
    warm = pipeline.compute(jobs)
    assert not cold.cache_hit and warm.cache_hit
    assert cold.X.tobytes() == warm.X.tobytes()
    # A different pred vector must key a different entry, not a stale hit.
    other = pipeline.compute(
        jobs, pred_runtime_min=np.full(len(jobs), 123.0)
    )
    assert not other.cache_hit
    assert cache.stats.hits == 1 and cache.stats.stores == 2


def test_truncated_entry_falls_back(cache, computed):
    _, _, fm, key = computed
    cache.store(key, fm)
    path = cache.path_for(key)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
    assert cache.load(key) is None  # no exception, counted as invalid miss
    assert cache.stats.invalid == 1
    assert not path.exists()  # unusable entry was evicted


def test_corrupt_bytes_fall_back(cache, computed):
    _, _, fm, key = computed
    cache.path_for(key).write_bytes(b"this is not an npz archive")
    assert cache.load(key) is None
    assert cache.stats.invalid == 1


def test_stale_version_falls_back(cache, computed):
    _, _, fm, key = computed
    # Forge an entry with an outdated version tag but valid arrays.
    with open(cache.path_for(key), "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CACHE_VERSION - 1),
            X=fm.X,
            names=np.array(fm.names),
            queue_time_min=fm.queue_time_min,
            log_transformed=np.bool_(fm.log_transformed),
        )
    assert cache.load(key) is None
    assert cache.stats.invalid == 1


def test_inconsistent_shape_falls_back(cache, computed):
    _, _, fm, key = computed
    with open(cache.path_for(key), "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CACHE_VERSION),
            X=fm.X,
            names=np.array(fm.names),
            queue_time_min=fm.queue_time_min[:-5],  # rows no longer align
            log_transformed=np.bool_(fm.log_transformed),
        )
    assert cache.load(key) is None
    assert cache.stats.invalid == 1


def test_concurrent_writers_race_benignly(cache, computed):
    """Two writers storing the same key: os.replace publishes whole files,
    so whoever lands last wins and the entry always loads cleanly; stray
    staging temp files never shadow the entry."""
    _, _, fm, key = computed
    cache.store(key, fm)
    cache.store(key, fm)  # second writer replaces the first atomically
    # A crashed writer's leftover staging file must not break reads.
    (cache.root / f".{key[:16]}-deadbeef.tmp").write_bytes(b"partial")
    hit = cache.load(key)
    assert hit is not None
    assert hit.X.tobytes() == fm.X.tobytes()
    assert cache.stats.stores == 2 and cache.stats.hits == 1


def test_root_colliding_with_file_is_a_clear_error(tmp_path):
    f = tmp_path / "occupied"
    f.write_text("not a directory")
    with pytest.raises(NotADirectoryError, match="not a directory"):
        FeatureCache(f)


def test_keys_separate_config_trace_and_pred(computed, cluster):
    jobs, pipeline, _, key = computed
    pred = jobs.records["timelimit_min"].astype(np.float64)
    other_pipeline = FeaturePipeline(cluster, user_window_s=12 * 3600.0)
    assert content_key(jobs, pred, other_pipeline.signature()) != key
    assert content_key(jobs[:-1], pred[:-1], pipeline.signature()) != key
    assert content_key(jobs, pred + 1.0, pipeline.signature()) != key
    # Same inputs → same key (pure content addressing).
    assert content_key(jobs, pred, pipeline.signature()) == key
