"""``offline_pipeline``: the batch path behind every paper number.

Each operation is one whole pipeline on a fresh 30k-job trace::

    generate_trace → write_swf → read_swf → build_feature_matrix
        → train_trout → TroutModel.predict_minutes on the holdout

The run draws ``max(2, seconds // 6)`` traces from sub-seeds of ``--seed``
so the inputs depend on the seed and the run length only.  Checks per
pipeline: the SWF read-back equals the simulated trace, and the holdout
accuracy / long-wait MAPE are finite and match the values recorded for
that trace (``holdout_reference.json``; a wide band for traces without
one).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_common import (
    CLUSTER_SCALE,
    LOAD,
    Context,
    Layers,
    Outcome,
    counter_total,
    median,
    overhead_pct,
    peak_rss_mb,
    percentile,
    span_meta_total,
    span_seconds,
    span_totals,
    timed_setup,
    traced_pass,
    write_snapshot,
)
from repro.core import TroutConfig, train_trout
from repro.core.training import build_feature_matrix
from repro.data.splits import holdout_recent
from repro.data.swf import read_swf, write_swf
from repro.workload import WorkloadConfig, generate_trace

N_JOBS = 30_000
#: Warm-up pipeline (set-up): exercises every code path once.  Its trace
#: is the same for every ``--seed``; it feeds no measurement, and a fixed
#: trace keeps the set-up time from following the seed's training length.
WARMUP_JOBS = 2_000
WARMUP_SEED = 999
SETUP_REPEATS = 5
#: Seconds of run length per pipeline in the run.
SECONDS_PER_PIPELINE = 6
#: Holdout accuracy and long-wait MAPE recorded per trace seed by
#: ``record_reference.py`` (seeds 0-30, five traces each).  Both are
#: deterministic for a trace: other OpenBLAS kernels move the MAPE by
#: ~1e-7 relative and leave the accuracy unchanged.
REFERENCE = {
    int(k): tuple(v)
    for k, v in json.loads(
        (Path(__file__).parent / "holdout_reference.json").read_text()
    ).items()
}
#: Relative tolerance against the recorded value of the same trace.
REFERENCE_RTOL = 0.01
#: Band for traces without a recorded value.  Over the 155 recorded
#: traces accuracy ranged from 0.821 to 0.988 and MAPE from 60 to 999 %.
ACCURACY_BAND = (0.75, 1.0)
MAPE_BAND_PCT = (30.0, 1500.0)

@dataclass
class PipelineResult:
    seconds: float
    accuracy: float
    mape_pct: float
    holdout_rows: int
    predict_s: float
    checksum: float
    errors: list[str]


def _pipeline(seed: int, n_jobs: int, workdir: str, layers: Layers) -> PipelineResult:
    errors: list[str] = []
    config = TroutConfig(seed=0)
    swf = f"{workdir}/trace-{seed}.swf"
    t0 = time.perf_counter()
    with layers.span("bench.pipeline", seed=seed, jobs=n_jobs):
        with layers.span("bench.generate_trace"):
            result, cluster = generate_trace(
                WorkloadConfig(
                    n_jobs=n_jobs, seed=seed, load=LOAD, cluster_scale=CLUSTER_SCALE
                )
            )
        with layers.span("bench.swf_write"):
            write_swf(result.jobs, swf)
        with layers.span("bench.swf_read"):
            jobs = read_swf(swf)
        with layers.span("bench.build_feature_matrix"):
            fm, _runtime = build_feature_matrix(jobs, cluster, config)
        with layers.span("bench.train_trout"):
            trained = train_trout(fm, config)
        _past, recent = holdout_recent(len(fm), config.holdout_fraction)
        t_pred = time.perf_counter()
        with layers.span("bench.holdout_predict", rows=len(recent)):
            minutes = trained.model.predict_minutes(fm.X[recent])
        predict_s = time.perf_counter() - t_pred
    seconds = time.perf_counter() - t0

    if not (
        np.array_equal(jobs.records, result.jobs.records)
        and jobs.partition_names == result.jobs.partition_names
    ):
        errors.append(f"seed {seed}: SWF read-back differs from the simulated trace")
    acc = float(trained.classifier_accuracy)
    mape = float(trained.regression_mape_holdout)
    errors.extend(_holdout_errors(seed, acc, mape))
    if not np.all(np.isfinite(minutes)) or np.any(minutes <= 0):
        errors.append(f"seed {seed}: non-finite or non-positive holdout predictions")
    return PipelineResult(
        seconds=seconds,
        accuracy=acc,
        mape_pct=mape,
        holdout_rows=len(recent),
        predict_s=predict_s,
        checksum=float(np.sum(minutes)),
        errors=errors,
    )


def _holdout_errors(seed: int, acc: float, mape: float) -> list[str]:
    """Compare the holdout guards with the trace's recorded reference."""
    if not (np.isfinite(acc) and np.isfinite(mape)):
        return [f"seed {seed}: non-finite holdout accuracy {acc} or MAPE {mape}"]
    if seed in REFERENCE:
        ref_acc, ref_mape = REFERENCE[seed]
        out = []
        if not np.isclose(acc, ref_acc, rtol=REFERENCE_RTOL, atol=0.0):
            out.append(f"seed {seed}: holdout accuracy {acc} vs recorded {ref_acc}")
        if not np.isclose(mape, ref_mape, rtol=REFERENCE_RTOL, atol=0.0):
            out.append(f"seed {seed}: holdout MAPE {mape} vs recorded {ref_mape}")
        return out
    out = []
    if not ACCURACY_BAND[0] <= acc <= ACCURACY_BAND[1]:
        out.append(f"seed {seed}: holdout accuracy {acc} outside {ACCURACY_BAND}")
    if not MAPE_BAND_PCT[0] <= mape <= MAPE_BAND_PCT[1]:
        out.append(f"seed {seed}: holdout MAPE {mape} outside {MAPE_BAND_PCT}")
    return out


def _run_pass(seeds: list[int], workdir: str, layers: Layers) -> list[PipelineResult]:
    out = []
    for s in seeds:
        out.append(_pipeline(s, N_JOBS, workdir, layers))
        layers.collect()
    return out


def run(ctx: Context) -> Outcome:
    n_pipelines = max(2, int(ctx.seconds) // SECONDS_PER_PIPELINE)
    seeds = [ctx.seed * 1000 + i for i in range(n_pipelines)]
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="offline-", dir=ctx.out_dir)
    try:
        setup_s, _ = timed_setup(
            lambda: _pipeline(WARMUP_SEED, WARMUP_JOBS, workdir, Layers(False)),
            repeats=SETUP_REPEATS,
        )
        if not ctx.traced:
            results = _run_pass(seeds, workdir, Layers(False))
            return _end_to_end(results, setup_s)
        # Traced run: the same traces untraced, then traced, at half length.
        half = seeds[: max(1, n_pipelines // 2)]
        plain = _run_pass(half, workdir, Layers(False))
        layers = Layers(True)
        with traced_pass(layers) as reg:
            traced = _run_pass(half, workdir, layers)
        path = write_snapshot(ctx, "offline_pipeline", layers.roots)
        outcome = _per_layer(plain, traced, layers, reg)
        outcome.notes.append(f"trace snapshot: {path}")
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(results: list[PipelineResult], setup_s: float) -> Outcome:
    secs = [r.seconds for r in results]
    errors = [e for r in results for e in r.errors]
    return Outcome(
        attempted=len(results),
        failed=sum(1 for r in results if r.errors),
        errors=errors,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "latency_p50_ms": 1000.0 * median(secs),
            # The upper quartile: over five pipelines, the second slowest.
            # The slowest one alone spread twice as much between seeds.
            "latency_tail_ms": 1000.0 * percentile(secs, 75),
            "throughput_per_s": N_JOBS * len(secs) / sum(secs),
        },
        notes=[
            f"pipeline_s per trace: {[round(s, 3) for s in secs]}",
            f"holdout_accuracy per trace: {[round(r.accuracy, 4) for r in results]}",
            f"holdout_mape_pct per trace: {[round(r.mape_pct, 2) for r in results]}",
        ],
    )


def _per_layer(plain, traced, layers: Layers, reg) -> Outcome:
    k = len(traced)
    errors = [e for r in plain + traced for e in r.errors]
    for a, b in zip(plain, traced):
        if (a.accuracy, a.mape_pct, a.checksum) != (b.accuracy, b.mape_pct, b.checksum):
            errors.append("traced pass changed the pipeline's results")
    tot = span_totals(layers.roots)

    def per_op(name: str) -> float:
        return span_seconds(tot, name) / k

    featurize_s = span_seconds(tot, "featurize")
    epochs = tot.get("epoch", (0.0, 0))
    started = counter_total(reg, "sim_jobs_started_total")
    top_level = sum(
        per_op(n)
        for n in (
            "bench.generate_trace",
            "bench.swf_write",
            "bench.swf_read",
            "bench.build_feature_matrix",
            "bench.train_trout",
            "bench.holdout_predict",
        )
    )
    pipeline_s = median(r.seconds for r in traced)
    m = {
        "slurm.simulate_s": per_op("simulate"),
        "slurm.jobs_per_s": span_meta_total(layers.roots, "simulate", "jobs")
        / span_seconds(tot, "simulate"),
        "slurm.scheduler_passes": counter_total(reg, "sim_scheduler_passes_total") / k,
        "slurm.backfill_share": (
            counter_total(reg, "sim_jobs_backfilled_total") / started if started else 0.0
        ),
        "slurm.events_tombstoned": counter_total(reg, "sim_events_tombstoned_total") / k,
        "data.swf_write_s": per_op("bench.swf_write"),
        "data.swf_read_s": per_op("bench.swf_read"),
        "core.runtime_model_s": per_op("runtime_model"),
        "ml.trees_fitted": counter_total(reg, "ml_trees_fitted_total") / k,
        "features.compute_s": featurize_s / k,
        "features.snapshots_s": per_op("snapshots"),
        "features.user_history_s": per_op("user_history"),
        "features.assemble_s": per_op("assemble"),
        "features.rows_per_s": counter_total(reg, "featurize_rows_total") / featurize_s,
        "nn.classifier_fit_s": per_op("train.classifier"),
        "nn.regressor_fit_s": per_op("train.regressor"),
        "nn.epochs": epochs[1] / k,
        "nn.epoch_ms": 1000.0 * epochs[0] / max(epochs[1], 1),
        "core.holdout_eval_s": per_op("evaluate.holdout"),
        "core.predict_rows_per_s": sum(r.holdout_rows for r in traced)
        / sum(r.predict_s for r in traced),
        "core.holdout_accuracy": float(np.mean([r.accuracy for r in traced])),
        "core.holdout_mape_pct": float(np.mean([r.mape_pct for r in traced])),
        "trace.coverage_pct": 100.0 * top_level / (span_seconds(tot, "bench.pipeline") / k),
        "trace_overhead_pct": overhead_pct(pipeline_s, median(r.seconds for r in plain)),
    }
    return Outcome(
        attempted=len(plain) + k,
        failed=sum(1 for r in plain + traced if r.errors),
        errors=errors,
        metrics=m,
    )
