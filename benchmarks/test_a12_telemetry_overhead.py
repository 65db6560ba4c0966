"""A12 — telemetry overhead gate.

The observability layer's contract (README "Observability", DESIGN.md §7):
instrumentation is coarse-grained enough to leave on — instrumented runs
stay within 5 % of a disabled-telemetry run, and with ``REPRO_TELEMETRY=0``
the residual cost of the null instruments is within 1 %.  The gate
measures the feature pipeline (the densest span/counter region) plus a
microbench of the null-instrument path itself.

Medians over several repetitions are compared, with a small absolute
slack so sub-millisecond jitter on fast machines cannot fail the ratio.
"""

import statistics
import time

from benchmarks.conftest import emit, once
from repro.eval.report import format_table
from repro.features.pipeline import FeaturePipeline
from repro.obs import metrics, tracing

REPS = 5
#: Relative ceilings from the overhead contract.
MAX_ENABLED_OVERHEAD = 1.05
MAX_DISABLED_OVERHEAD = 1.01
#: Absolute slack (seconds) under which the ratio gate is vacuous —
#: protects against noise dominating on small traces / fast machines.
ABS_SLACK_S = 0.05


def _median_runtime(fn, reps=REPS):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _set_telemetry(flag: bool) -> None:
    metrics.set_enabled(flag)
    metrics.get_registry().reset()
    tracing.reset()


def test_a12_pipeline_overhead(benchmark, bench_trace):
    result, cluster = bench_trace
    jobs = result.jobs[: min(len(result.jobs), 12_000)]
    pipeline = FeaturePipeline(cluster)

    compute = lambda: pipeline.compute(jobs)
    compute()  # warm caches (interval trees, imports) outside timing

    try:
        _set_telemetry(False)
        t_off = _median_runtime(compute)
        _set_telemetry(True)
        t_on = _median_runtime(compute)
    finally:
        _set_telemetry(True)

    ratio = t_on / t_off if t_off > 0 else 1.0
    emit(
        "a12_telemetry_overhead",
        format_table(
            ["n jobs", "off (s)", "on (s)", "ratio"],
            [[len(jobs), t_off, t_on, ratio]],
            float_fmt="{:.4f}",
        ),
    )
    once(benchmark, compute)

    assert (
        ratio <= MAX_ENABLED_OVERHEAD or (t_on - t_off) <= ABS_SLACK_S
    ), (t_off, t_on)


def test_a12_null_instrument_cost():
    """REPRO_TELEMETRY=0: instrumented call sites must cost one dict
    lookup plus one empty call.  Measured against the bare-loop baseline
    rather than an enabled registry — this is the '≤1 % when disabled'
    half of the contract, scaled to the metric-op density of real runs
    (a handful of ops per pipeline stage, not per row)."""
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
