"""A10 — feature-cache effectiveness on the offline hot path.

§V names interval-tree feature engineering over the full trace as the
dominant offline cost; the content-addressed on-disk cache
(:mod:`repro.features.cache`) makes every re-featurisation of an unchanged
(trace, config, runtime-predictions) triple a single ``.npz`` read.  The
bench measures a cold build vs a warm hit over the benchmark trace and
requires the hit to be at least 10× faster and byte-identical.
"""

import numpy as np

from benchmarks.conftest import emit, once
from repro.eval.report import format_table, format_timing_report
from repro.features.cache import FeatureCache
from repro.features.pipeline import FeaturePipeline
from repro.obs import tracing


def test_a10_cache_hit_speedup(benchmark, bench_trace, tmp_path):
    result, cluster = bench_trace
    jobs = result.jobs[: min(len(result.jobs), 16_000)]

    cache = FeatureCache(tmp_path / "features")
    pipeline = FeaturePipeline(cluster, cache=cache)

    with tracing.span("a10.cold") as rec_cold:
        cold = pipeline.compute(jobs)
    with tracing.span("a10.warm") as rec_warm:
        warm = pipeline.compute(jobs)
    t_cold, t_warm = rec_cold.elapsed, rec_warm.elapsed

    assert not cold.cache_hit and warm.cache_hit
    assert cold.X.tobytes() == warm.X.tobytes()
    assert cache.stats.hits == 1 and cache.stats.stores == 1

    emit(
        "a10_feature_cache",
        format_table(
            ["n jobs", "cold (s)", "warm hit (s)", "speed-up"],
            [[len(jobs), t_cold, t_warm, t_cold / t_warm]],
            float_fmt="{:.4f}",
        )
        + "\n\ncold-run stage breakdown:\n"
        + format_timing_report(cold.timings, cache.stats),
    )

    # Timed artefact: the warm path (one content hash + one .npz read).
    once(benchmark, lambda: pipeline.compute(jobs))

    assert t_cold / t_warm >= 10.0, (t_cold, t_warm)
