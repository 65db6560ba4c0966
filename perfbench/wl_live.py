"""``live_queries``: a resident model answering queue-view questions.

Set-up simulates a ``HISTORY_JOBS`` history, featurizes it and trains
TROUT on it (three times; the median is ``setup_s``).  Each operation is
what ``trout queue --model`` does for one instant::

    RuntimePredictor.predict_minutes(history) → live_features(history, t)
        → TroutModel.predict_minutes(pending rows)

Like ``trout queue --model``, a query first finds the pending jobs with
``pending_at`` and runs the three calls above only when there are any.
Instants are the eligibility times of the history's later half nearest
to seeded uniform targets at which the queue is not empty (about half of
all of them are), so every operation answers someone; each one
re-featurizes the whole masked trace.  Check per query: the answered positions are the
pending jobs, the live rows are bitwise equal to the offline
``FeaturePipeline`` rows of the same jobs (the equivalence
``repro.features.live`` documents), and the runtime predictions and
answers are finite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from bench_common import (
    Context,
    Layers,
    Outcome,
    counter_total,
    median,
    overhead_pct,
    peak_rss_mb,
    percentile,
    prepare_model,
    same_model,
    span_seconds,
    span_totals,
    timed_setup,
    traced_pass,
    write_snapshot,
)
from repro.features.live import live_features, pending_at


@dataclass
class QueryResult:
    seconds: float
    rows_featurized: int
    rows_answered: int
    error: str | None


def _instants(prep, seed: int, n: int) -> np.ndarray:
    """``n`` seeded query instants, each with a non-empty queue.

    A target is drawn uniformly from the eligibility times of the
    history's later half; where nobody is pending then, the query moves to
    the nearest of those times at which somebody is.  Every query answers
    someone, and the history it re-featurizes grows evenly over the later
    half whatever the seed's congestion pattern (drawing from the busy
    times alone would follow where congestion falls, and move the median
    query by ±20 % between seeds).
    """
    eligible = np.sort(prep.jobs.records["eligible_time"])
    later = eligible[len(eligible) // 2 :]
    busy = np.flatnonzero([len(pending_at(prep.jobs, t)) > 0 for t in later])
    if not len(busy):
        raise RuntimeError("nobody is ever pending in the history's later half")
    target = np.random.default_rng(seed).uniform(0, len(later) - 1, size=n)
    k = np.searchsorted(busy, target)
    near = np.stack([busy[np.maximum(k - 1, 0)], busy[np.minimum(k, len(busy) - 1)]])
    pick = near[np.argmin(np.abs(near - target), axis=0), np.arange(n)]
    return later[pick].astype(np.float64)


def _query(prep, t_now: float, runtime_ref: np.ndarray, layers: Layers) -> QueryResult:
    jobs = prep.jobs
    with layers.span("bench.query", t_now=t_now):
        t0 = time.perf_counter()
        pend = pending_at(jobs, t_now)
        pred = runtime_ref
        X, positions, minutes = np.empty((0, 0)), pend, np.empty(0)
        if len(pend):
            with layers.span("bench.runtime_predict"):
                pred = prep.runtime.predict_minutes(jobs)
            with layers.span("bench.live_features"):
                X, positions = live_features(
                    jobs, t_now, prep.cluster, pred_runtime_min=pred
                )
            with layers.span("bench.model_predict", rows=len(X)):
                minutes = prep.model.predict_minutes(X)
        seconds = time.perf_counter() - t0
    error = None
    if not len(pend):
        error = f"t={t_now}: the queue is empty, so nothing was answered"
    elif not np.array_equal(np.sort(positions), pend):
        error = f"t={t_now}: live rows are not the pending jobs"
    elif not np.array_equal(pred, runtime_ref):
        error = f"t={t_now}: runtime predictions differ from the set-up's"
    elif not np.array_equal(X, prep.fm.X[positions]):
        error = f"t={t_now}: live rows differ from the offline rows"
    elif not np.all(np.isfinite(minutes)):
        error = f"t={t_now}: non-finite answers"
    return QueryResult(
        seconds=seconds,
        rows_featurized=int(np.sum(jobs.records["submit_time"] <= t_now)),
        rows_answered=len(X),
        error=error,
    )


def _run_pass(prep, instants, runtime_ref, seconds: float, layers: Layers) -> list[QueryResult]:
    """Answer instants in order until ``seconds`` have passed."""
    out: list[QueryResult] = []
    deadline = time.perf_counter() + seconds
    for t_now in instants:
        if out and time.perf_counter() >= deadline:
            break
        out.append(_query(prep, float(t_now), runtime_ref, layers))
        layers.collect()
    return out


def run(ctx: Context) -> Outcome:
    setup_s, preps = timed_setup(lambda: prepare_model(ctx.seed))
    prep = preps[-1]
    errors = [] if all(same_model(prep, p) for p in preps[:-1]) else [
        "set-up is not deterministic: repeated training differs"
    ]
    runtime_ref = prep.runtime.predict_minutes(prep.jobs)
    instants = _instants(prep, ctx.seed, 100_000)
    if not ctx.traced:
        results = _run_pass(prep, instants, runtime_ref, ctx.seconds, Layers(False))
        lat_ms = [1000.0 * r.seconds for r in results]
        return Outcome(
            attempted=len(results),
            failed=sum(1 for r in results if r.error),
            errors=errors + [r.error for r in results if r.error],
            metrics={
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "latency_p50_ms": median(lat_ms),
                "latency_tail_ms": percentile(lat_ms, 90),
                "throughput_per_s": len(results) / sum(r.seconds for r in results),
            },
            notes=[f"queries answered: {len(results)}"],
        )
    # Traced run: the same instants untraced, then traced, at half length.
    plain = _run_pass(prep, instants, runtime_ref, ctx.seconds / 2, Layers(False))
    layers = Layers(True)
    with traced_pass(layers) as reg:
        traced = _run_pass(prep, instants[: len(plain)], runtime_ref, float("inf"), layers)
    path = write_snapshot(ctx, "live_queries", layers.roots)
    k = len(traced)
    tot = span_totals(layers.roots)
    featurize_s = span_seconds(tot, "featurize")
    answered = sum(r.rows_answered for r in traced)
    featurized = sum(r.rows_featurized for r in traced)
    predict_s = span_seconds(tot, "bench.model_predict")
    top_level = sum(
        span_seconds(tot, n)
        for n in ("bench.runtime_predict", "bench.live_features", "bench.model_predict")
    )
    metrics = {
        "live.runtime_predict_ms": 1000.0 * span_seconds(tot, "bench.runtime_predict") / k,
        "live.featurize_ms": 1000.0 * span_seconds(tot, "bench.live_features") / k,
        "live.snapshots_ms": 1000.0 * span_seconds(tot, "snapshots") / k,
        "live.model_predict_ms": 1000.0 * predict_s / k,
        "live.rows_featurized": featurized / k,
        "live.rows_answered": answered / k,
        "live.useful_row_ratio": answered / featurized,
        "features.compute_s": featurize_s / k,
        "features.snapshots_s": span_seconds(tot, "snapshots") / k,
        "features.user_history_s": span_seconds(tot, "user_history") / k,
        "features.assemble_s": span_seconds(tot, "assemble") / k,
        "features.rows_per_s": counter_total(reg, "featurize_rows_total") / featurize_s,
        "core.predict_rows_per_s": answered / predict_s if predict_s else 0.0,
        "trace.coverage_pct": 100.0 * top_level / span_seconds(tot, "bench.query"),
        "trace_overhead_pct": overhead_pct(
            median(r.seconds for r in traced), median(r.seconds for r in plain)
        ),
    }
    all_results = plain + traced
    return Outcome(
        attempted=len(all_results),
        failed=sum(1 for r in all_results if r.error),
        errors=errors + [r.error for r in all_results if r.error],
        metrics=metrics,
        notes=[f"queries answered: {len(plain)} untraced, {k} traced",
               f"trace snapshot: {path}"],
    )
