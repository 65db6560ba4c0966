"""A12 — telemetry overhead gate.

The observability layer's contract (README "Observability", DESIGN.md §7):
instrumentation is coarse-grained enough to leave on — instrumented runs
stay within 5 % of a disabled-telemetry run.  The gate times a seeded
quick-start classifier fit on the benchmark features: its epoch spans,
``nn_alloc_blocks_per_epoch`` gauge and ``MetricsCallback`` gauges are
the densest instrumentation per second of real work.  With
``REPRO_TELEMETRY=0`` a microbench checks the null-instrument path
itself: one null metric op must cost under 1 µs.

Disabled and enabled fits alternate (the side that runs first alternates
too), so drift in the host's speed hits both sides alike, and their
medians are compared with no absolute slack.
"""

import gc
import statistics
import time

from benchmarks.conftest import emit, once
from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig
from repro.eval.report import format_table
from repro.obs import metrics, tracing

#: Alternated off/on fits per side.  Many short fits beat a few long
#: ones: the host's speed drifts over seconds.  On a 2-vCPU container the
#: ratio of medians stayed within 0.98-1.02 over 11 runs, against
#: 0.84-1.24 for 7 full-length fits timed with the GC running.
REPS = 50
#: Relative ceiling from the overhead contract.
MAX_ENABLED_OVERHEAD = 1.05


def _set_telemetry(flag: bool) -> None:
    metrics.set_enabled(flag)
    metrics.get_registry().reset()
    tracing.reset()


def _timed(fn) -> float:
    """Wall time of one call with the cyclic GC paused, as ``timeit`` does:
    a collection landing in one sample would cost more than the
    instrumentation being measured."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def test_a12_training_overhead(benchmark, bench_fm, bench_config):
    fm, _ = bench_fm
    X = fm.X
    y_long = (fm.queue_time_min > bench_config.cutoff_min).astype(int)

    # Four epochs with patience four: early stopping never fires, so every
    # fit does the same work (~80 ms at 12 k rows on a 2-vCPU container).
    cfg = ClassifierConfig(epochs=4, patience=4)

    def fit():
        QuickStartClassifier(X.shape[1], cfg, seed=0).fit(X, y_long)

    fit()  # warm imports and allocator pools outside timing

    samples = {False: [], True: []}
    try:
        for rep in range(REPS):
            order = (False, True) if rep % 2 == 0 else (True, False)
            for flag in order:
                _set_telemetry(flag)
                samples[flag].append(_timed(fit))
    finally:
        _set_telemetry(True)
    t_off = statistics.median(samples[False])
    t_on = statistics.median(samples[True])

    ratio = t_on / t_off
    emit(
        "a12_telemetry_overhead",
        format_table(
            ["n rows", "reps", "off (s)", "on (s)", "ratio"],
            [[len(X), REPS, t_off, t_on, ratio]],
            float_fmt="{:.4f}",
        ),
    )
    once(benchmark, fit)

    assert ratio <= MAX_ENABLED_OVERHEAD, (samples[False], samples[True])


def test_a12_null_instrument_cost():
    """REPRO_TELEMETRY=0: instrumented call sites must cost one dict
    lookup plus one empty call, under 1 µs per op.  Measured against the
    bare-loop baseline rather than an enabled registry; no whole-run
    ratio is asserted for the disabled side."""
    n = 200_000
    reg = metrics.MetricsRegistry(enabled=False)

    t0 = time.perf_counter()
    for _ in range(n):
        pass
    t_base = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n):
        reg.counter("x_total").inc()
    t_null = time.perf_counter() - t0

    per_op = (t_null - t_base) / n
    emit(
        "a12_null_instrument_cost",
        format_table(
            ["ops", "ns/op"],
            [[n, per_op * 1e9]],
            float_fmt="{:.1f}",
        ),
    )
    # A null metric op must stay under a microsecond; at the real call
    # density (tens of ops per featurization) that is far below 1 %.
    assert per_op < 1e-6, per_op
