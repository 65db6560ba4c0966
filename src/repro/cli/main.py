"""``trout`` — simulate, train, and predict queue times.

Subcommands
-----------
- ``trout simulate`` — generate a synthetic Anvil-like trace and write it
  as an SWF-style file.
- ``trout stats`` — Table-I statistics and an sacct-style head of a trace.
- ``trout train`` — featurise a trace, train the hierarchy, save a model
  directory, and print holdout metrics.
- ``trout predict`` — Algorithm 1 on an existing job id from a trace.
- ``trout hypothetical`` — §V's future-work feature: predict for a job
  that was never submitted, given its requested resources.
- ``trout serve`` — the online prediction service (DESIGN.md §10):
  micro-batched ``/predict`` over a hot-reloaded model registry, plus
  ``/healthz`` and Prometheus ``/metrics``.
- ``trout publish`` — atomically publish a trained model directory as
  the next version of a serving registry.
- ``trout telemetry`` — pretty-print a telemetry snapshot saved by a
  previous run's ``--telemetry=json --telemetry-out``;
  ``--format=chrome`` re-renders it as Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto.
- ``trout audit`` — inspect (``tail``/``stats``) or re-score
  (``replay``) the prediction audit trail ``trout serve --audit-log``
  writes; replay joins actual queue minutes and runs the same
  rolling-MAPE drift monitor as the online path.
- ``trout lint`` — run the ``troutlint`` invariant checker
  (:mod:`repro.analysis`) over the source tree; ``--format=json`` for
  machines, ``--baseline`` to grandfather current violations.

``simulate``, ``train`` and ``predict`` accept ``--telemetry[=FMT]``
(``report``, ``json``, ``prom`` or ``chrome``): telemetry is
force-enabled for the run and a snapshot is dumped on exit — to stdout,
or to ``--telemetry-out PATH``.
"""

from __future__ import annotations

import argparse
import math
import pickle
import sys
from pathlib import Path

import numpy as np

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.core import TroutConfig, TroutModel, train_trout
from repro.core.training import build_feature_matrix
from repro.data.schema import JOB_DTYPE, JobSet
from repro.data.stats import format_statistics_table, job_statistics
from repro.data.swf import read_swf, write_swf
from repro.features.pipeline import FeaturePipeline
from repro.slurm.accounting import format_sacct
from repro.slurm.anvil import anvil_cluster
from repro.utils.logging import enable_console_logging
from repro.workload import WorkloadConfig, generate_trace

__all__ = ["main", "build_parser"]


def _add_telemetry_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--telemetry",
        nargs="?",
        const="report",
        choices=("report", "json", "prom", "chrome"),
        default=None,
        help="dump a telemetry snapshot on exit (bare flag = report)",
    )
    sp.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        help="write the telemetry dump to this file instead of stdout",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trout", description="Hierarchical HPC queue-time prediction"
    )
    p.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic trace")
    sim.add_argument("--n-jobs", type=int, default=20_000)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--load", type=float, default=0.28, help="target pool load")
    sim.add_argument("--scale", type=float, default=0.05, help="cluster scale")
    sim.add_argument("--out", type=Path, required=True, help="output .swf path")
    _add_telemetry_args(sim)

    st = sub.add_parser("stats", help="describe a trace")
    st.add_argument("--trace", type=Path, required=True)
    st.add_argument("--head", type=int, default=10, help="sacct lines to show")

    tr = sub.add_parser("train", help="train TROUT on a trace")
    tr.add_argument("--trace", type=Path, required=True)
    tr.add_argument("--out", type=Path, required=True, help="model directory")
    tr.add_argument("--scale", type=float, default=0.05, help="cluster scale of the trace")
    tr.add_argument("--cutoff-min", type=float, default=10.0)
    tr.add_argument("--seed", type=int, default=0)
    _add_telemetry_args(tr)

    pr = sub.add_parser("predict", help="predict for an existing job")
    pr.add_argument("--model", type=Path, required=True)
    pr.add_argument("--trace", type=Path, required=True)
    pr.add_argument("--scale", type=float, default=0.05)
    pr.add_argument("--job-id", type=int, required=True)
    pr.add_argument(
        "--interval",
        action="store_true",
        help="also report an 80%% MC-dropout prediction interval",
    )
    _add_telemetry_args(pr)

    qu = sub.add_parser("queue", help="squeue-style view of the queue at a time")
    qu.add_argument("--trace", type=Path, required=True)
    qu.add_argument(
        "--at",
        type=float,
        default=None,
        help="trace time in seconds (default: instant of the last eligibility)",
    )
    qu.add_argument("--model", type=Path, default=None,
                    help="optionally annotate pending jobs with predictions")
    qu.add_argument("--scale", type=float, default=0.05)
    qu.add_argument("--limit", type=int, default=20)

    hy = sub.add_parser("hypothetical", help="predict for an unsubmitted job")
    hy.add_argument("--model", type=Path, required=True)
    hy.add_argument("--trace", type=Path, required=True)
    hy.add_argument("--scale", type=float, default=0.05)
    hy.add_argument("--partition", type=str, default="shared")
    hy.add_argument("--cpus", type=_positive_int, default=16)
    hy.add_argument("--mem-gb", type=_non_negative_float, default=32.0)
    hy.add_argument("--nodes", type=_positive_int, default=1)
    hy.add_argument("--timelimit-min", type=_positive_float, default=240.0)
    hy.add_argument("--user-id", type=int, default=0)

    se = sub.add_parser(
        "serve", help="online prediction service over a model registry"
    )
    se.add_argument(
        "--model-dir",
        type=Path,
        required=True,
        help="a registry root (vNNNN version dirs, hot-reloaded) or a "
        "single trained model directory from `trout train`",
    )
    se.add_argument("--host", type=str, default="127.0.0.1")
    se.add_argument("--port", type=int, default=8080)
    se.add_argument(
        "--max-batch", type=int, default=32,
        help="rows coalesced into one model call",
    )
    se.add_argument(
        "--max-wait-ms", type=float, default=0.0,
        help="coalescing window: how long a batch waits for more requests "
        "once one arrived (default 0: dispatch what is already queued)",
    )
    se.add_argument(
        "--queue-depth", type=int, default=128,
        help="pending-request bound; beyond it requests get 503 + Retry-After",
    )
    se.add_argument(
        "--reload-interval", type=float, default=2.0,
        help="registry poll interval (seconds) for hot reload",
    )
    se.add_argument(
        "--audit-log", type=Path, default=None,
        help="append one JSONL audit record per prediction here "
        "(size-rotated; replay later with `trout audit replay`)",
    )
    se.add_argument(
        "--event-log", type=Path, default=None,
        help="write info-and-up structured events here as JSONL "
        "(size-rotated)",
    )

    pu = sub.add_parser(
        "publish", help="atomically publish a trained model into a registry"
    )
    pu.add_argument("--model", type=Path, required=True,
                    help="model directory from `trout train`")
    pu.add_argument("--registry", type=Path, required=True,
                    help="registry root (created if missing)")
    pu.add_argument(
        "--partitions", type=str, default="",
        help="comma-separated partition names the model serves "
        "(empty = accept any)",
    )

    te = sub.add_parser(
        "telemetry", help="pretty-print a saved telemetry snapshot"
    )
    te.add_argument(
        "snapshot", type=Path, help="JSON snapshot from --telemetry=json"
    )
    te.add_argument(
        "--format",
        choices=("report", "chrome"),
        default="report",
        help="terminal report (default) or Chrome trace-event JSON "
        "for chrome://tracing / Perfetto",
    )

    au = sub.add_parser(
        "audit", help="inspect or replay a serving audit trail"
    )
    ausub = au.add_subparsers(dest="audit_command", required=True)
    at = ausub.add_parser("tail", help="print the most recent audit records")
    at.add_argument("log", type=Path, help="audit JSONL from `trout serve --audit-log`")
    at.add_argument("-n", type=int, default=10, help="records to show")
    ast = ausub.add_parser("stats", help="aggregate a whole audit trail")
    ast.add_argument("log", type=Path, help="audit JSONL from `trout serve --audit-log`")
    ar = ausub.add_parser(
        "replay",
        help="score a trail against actual queue minutes (rolling MAPE + drift)",
    )
    ar.add_argument("log", type=Path, help="audit JSONL from `trout serve --audit-log`")
    ar.add_argument(
        "--actuals", type=Path, default=None,
        help="JSON object {request_id: actual_minutes} or JSONL records "
        "with request_id + actual_minutes; records already carrying "
        "actual_minutes need no file",
    )
    ar.add_argument("--threshold", type=float, default=200.0,
                    help="rolling-MAPE drift alarm threshold (%%)")
    ar.add_argument("--window", type=int, default=500,
                    help="rolling window size (scored long-wait jobs)")
    ar.add_argument("--min-samples", type=int, default=50,
                    help="rolling MAPE undefined below this many samples")
    ar.add_argument("--format", choices=("report", "json"), default="report")

    li = sub.add_parser(
        "lint", help="run the troutlint invariant checker over the sources"
    )
    add_lint_arguments(li)
    return p


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = WorkloadConfig(
        n_jobs=args.n_jobs, seed=args.seed, load=args.load, cluster_scale=args.scale
    )
    result, _cluster = generate_trace(cfg)
    write_swf(result.jobs, args.out)
    q = result.queue_time_min
    print(f"wrote {len(result.jobs)} jobs to {args.out}")
    print(f"queue time: {100 * float(np.mean(q < 10)):.1f}% under 10 min, "
          f"p99 = {np.percentile(q, 99):.0f} min")
    print(format_statistics_table(job_statistics(result.jobs)))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    jobs = read_swf(args.trace)
    print(format_statistics_table(job_statistics(jobs)))
    print()
    print(format_sacct(jobs, limit=args.head))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.eval.report import format_timing_report

    jobs = read_swf(args.trace)
    cluster = anvil_cluster(scale=args.scale)
    config = TroutConfig(cutoff_min=args.cutoff_min, seed=args.seed)
    fm, runtime = build_feature_matrix(jobs, cluster, config)
    if fm.timings:
        print(format_timing_report(fm.timings))
    result = train_trout(fm, config)
    result.model.save(args.out)
    with open(Path(args.out) / "runtime_model.pkl", "wb") as fh:
        pickle.dump(runtime, fh)
    print(f"model saved to {args.out}")
    print(f"classifier accuracy (recent 20% holdout): {result.classifier_accuracy:.4f}")
    print(f"  quick-start class: {result.classifier_accuracy_quick:.4f}")
    print(f"  long-wait class:   {result.classifier_accuracy_long:.4f}")
    print(f"regressor MAPE on long-wait holdout jobs: {result.regression_mape_holdout:.1f}%")
    return 0


def _load_bundle(model_dir: Path) -> tuple[TroutModel, object] | None:
    """The model and runtime predictor saved by ``trout train``, or None
    after reporting on stderr why ``model_dir`` cannot be loaded."""
    try:
        model = TroutModel.load(model_dir)
        with open(model_dir / "runtime_model.pkl", "rb") as fh:
            runtime = pickle.load(fh)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load model {model_dir}: {exc}", file=sys.stderr)
        return None
    return model, runtime


def _featurise(jobs: JobSet, scale: float, runtime, rows: np.ndarray) -> np.ndarray:
    """Feature rows of the jobs at ``rows``; runtimes are predicted for
    every job, since each row's snapshot columns sum over its queue."""
    cluster = anvil_cluster(scale=scale)
    pred = runtime.predict_minutes(jobs)
    fm = FeaturePipeline(cluster).compute(jobs, pred_runtime_min=pred, rows=rows)
    return fm.X


def _cmd_predict(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.model)
    if bundle is None:
        return 1
    model, runtime = bundle
    jobs = read_swf(args.trace)
    pos = np.flatnonzero(jobs.column("job_id") == args.job_id)
    if not len(pos):
        print(f"job {args.job_id} not found in {args.trace}", file=sys.stderr)
        return 1
    X = _featurise(jobs, args.scale, runtime, pos)
    msg = model.predict_messages(X)[0]
    actual = float(jobs.queue_time_min[pos[0]])
    print(f"job {args.job_id}: {msg}")
    if args.interval and model.predict(X)[0].long_wait:
        iv = model.regressor.predict_interval(X, n_samples=30, alpha=0.2)
        print(
            f"80% interval: {iv['lower'][0]:.0f} - {iv['upper'][0]:.0f} minutes"
        )
    print(f"(actual queue time in trace: {actual:.1f} minutes)")
    return 0


def _cmd_hypothetical(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.model)
    if bundle is None:
        return 1
    model, runtime = bundle
    jobs = read_swf(args.trace)
    try:
        part_idx = list(jobs.partition_names).index(args.partition)
    except ValueError:
        print(
            f"unknown partition {args.partition!r}; trace has "
            f"{jobs.partition_names}",
            file=sys.stderr,
        )
        return 1
    # Append the hypothetical job at "now" (just past the trace end) with
    # an empty pending interval so it matches no snapshot query itself.
    t_now = float(jobs.column("eligible_time").max()) + 1.0
    rec = np.zeros(1, dtype=JOB_DTYPE)
    rec["job_id"] = jobs.column("job_id").max() + 1
    rec["user_id"] = args.user_id
    rec["partition"] = part_idx
    rec["submit_time"] = rec["eligible_time"] = t_now
    rec["start_time"] = rec["end_time"] = t_now
    rec["req_cpus"] = args.cpus
    rec["req_mem_gb"] = args.mem_gb
    rec["req_nodes"] = args.nodes
    rec["timelimit_min"] = args.timelimit_min
    rec["priority"] = float(np.median(jobs.column("priority")))
    extended = jobs.concat(JobSet(rec, jobs.partition_names))
    X = _featurise(extended, args.scale, runtime, np.array([len(jobs)]))
    msg = model.predict_messages(X)[0]
    print(
        f"hypothetical job ({args.partition}, {args.cpus} CPUs, "
        f"{args.mem_gb} GB, {args.nodes} nodes, {args.timelimit_min:.0f} min "
        f"limit): {msg}"
    )
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from repro.features.live import live_features, pending_at, running_at

    jobs = read_swf(args.trace)
    t_now = (
        float(jobs.column("eligible_time").max())
        if args.at is None
        else float(args.at)
    )
    pend = pending_at(jobs, t_now)
    run = running_at(jobs, t_now)
    names = jobs.partition_names
    print(f"queue state at t={t_now:.0f}s: {len(run)} running, {len(pend)} pending")

    predictions: dict[int, str] = {}
    if args.model is not None and len(pend):
        bundle = _load_bundle(args.model)
        if bundle is None:
            return 1
        model, runtime = bundle
        pred_rt = runtime.predict_minutes(jobs)
        X_live, positions = live_features(
            jobs, t_now, anvil_cluster(args.scale), pred_runtime_min=pred_rt,
        )
        msgs = model.predict_messages(X_live)
        predictions = {int(p): m for p, m in zip(positions, msgs)}

    rec = jobs.records
    print(f"{'JOBID':>8} {'PARTITION':>10} {'USER':>6} {'CPUS':>6} "
          f"{'WAIT(min)':>10}  PREDICTION")
    order = pend[np.argsort(-rec["priority"][pend])]
    for p in order[: args.limit]:
        wait = (t_now - rec["eligible_time"][p]) / 60.0
        part = names[int(rec["partition"][p])] if names else str(rec["partition"][p])
        print(
            f"{int(rec['job_id'][p]):>8} {part:>10} u{int(rec['user_id'][p]):<5} "
            f"{int(rec['req_cpus'][p]):>6} {wait:>10.1f}  "
            f"{predictions.get(int(p), '-')}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.events import configure_event_log, emit, get_event_log
    from repro.serve import (
        AuditTrail,
        LoadedModel,
        ModelRegistry,
        PredictionService,
        RegistryError,
        ServeConfig,
        start_server,
    )

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        reload_interval_s=args.reload_interval,
    )
    registry = None
    if (args.model_dir / "meta.json").is_file():
        # A bare `trout train` output: fixed model, no hot reload.
        loaded = LoadedModel(
            model=TroutModel.load(args.model_dir), version=0, fingerprint=""
        )
        print(f"serving fixed model from {args.model_dir}")
    else:
        registry = ModelRegistry(args.model_dir)
        try:
            loaded = registry.load_latest()
        except RegistryError as exc:
            print(f"cannot serve from {args.model_dir}: {exc}", file=sys.stderr)
            return 1
        print(
            f"serving registry {args.model_dir} at version {loaded.version} "
            f"(hot reload every {config.reload_interval_s:g}s)"
        )
    if args.event_log is not None:
        configure_event_log(args.event_log)
        print(f"event log: {args.event_log}")
    audit = None
    if args.audit_log is not None:
        audit = AuditTrail(args.audit_log)
        print(f"audit trail: {args.audit_log}")
    service = PredictionService(loaded, config, registry=registry, audit=audit)
    server = start_server(service, config.host, config.port)
    emit(
        "serve.started",
        host=config.host,
        port=server.port,
        model_version=loaded.version,
        hot_reload=registry is not None,
        audit=args.audit_log is not None,
    )
    print(
        f"listening on http://{config.host}:{server.port} "
        f"(POST /predict, GET /healthz, GET /metrics) — Ctrl-C to stop"
    )
    # SIGTERM must run the same orderly shutdown as Ctrl-C: audit and
    # event sinks are block-buffered, so dying without a flush would
    # drop the tail of the trail.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _sig, _frm: stop.set())
    try:
        while not stop.wait(0.5):
            pass
        print("terminated, shutting down")
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown_service()
        if audit is not None:
            audit.close()
        emit(
            "serve.stopped",
            n_audit_records=0 if audit is None else audit.n_appended,
        )
        get_event_log().flush()
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.serve import RegistryError, publish_model

    try:
        model = TroutModel.load(args.model)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load model {args.model}: {exc}", file=sys.stderr)
        return 1
    partitions = tuple(p for p in args.partitions.split(",") if p)
    try:
        version = publish_model(args.registry, model, partitions=partitions)
    except (OSError, RegistryError) as exc:
        print(f"publish failed: {exc}", file=sys.stderr)
        return 1
    print(f"published version {version} to {args.registry}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import render_snapshot, to_chrome

    try:
        snap = json.loads(args.snapshot.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read snapshot {args.snapshot}: {exc}", file=sys.stderr)
        return 1
    try:
        if args.format == "chrome":
            print(to_chrome(snap))
        else:
            print(render_snapshot(snap))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _load_actuals(path: Path) -> dict[str, float]:
    """``request_id → actual minutes`` from a JSON object or JSONL file."""
    import json

    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        return {str(k): float(v) for k, v in doc.items()}
    actuals: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        rid = rec.get("request_id")
        minutes = rec.get("actual_minutes", rec.get("minutes"))
        if rid is not None and minutes is not None:
            actuals[str(rid)] = float(minutes)
    return actuals


def _cmd_audit(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.serve.audit import audit_stats, iter_audit_records, replay_audit

    if not args.log.is_file():
        print(f"no audit log at {args.log}", file=sys.stderr)
        return 1
    if args.audit_command == "tail":
        for rec in list(iter_audit_records(args.log))[-args.n :]:
            print(json.dumps(rec, sort_keys=True))
        return 0
    if args.audit_command == "stats":
        print(json.dumps(audit_stats(iter_audit_records(args.log)), indent=2))
        return 0
    # replay
    actuals = None
    if args.actuals is not None:
        try:
            actuals = _load_actuals(args.actuals)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read --actuals {args.actuals}: {exc}", file=sys.stderr)
            return 1
    report = replay_audit(
        iter_audit_records(args.log),
        actuals=actuals,
        threshold=args.threshold,
        window=args.window,
        min_samples=args.min_samples,
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0

    def _pct(v: float) -> str:
        return "n/a" if math.isnan(v) else f"{v:.1f}%"

    print(
        f"audit replay: {report['n_records']} records, "
        f"{report['n_joined']} joined, "
        f"{report['n_scored_long']} scored long-wait"
    )
    acc = report["classifier_accuracy"]
    print(
        "classifier accuracy: "
        + ("n/a" if math.isnan(acc) else f"{acc:.4f}")
    )
    print(
        f"MAPE: {_pct(report['mape'])}   "
        f"rolling (last {report['window']}): {_pct(report['rolling_mape'])}"
    )
    print(
        f"drift alarms: {report['n_drift_alarms']} "
        f"(threshold {report['threshold']:g}%, window {report['window']})"
    )
    for alarm in report["alarms"]:
        print(
            f"  alarm at record {alarm['at_record']} "
            f"(request {alarm['request_id']}): "
            f"rolling MAPE {alarm['rolling_mape']:.1f}%"
        )
    return 0


def _dump_telemetry(fmt: str, out: Path | None) -> None:
    from repro.obs import export

    if fmt == "prom":
        text = export.to_prometheus()
    elif fmt == "json":
        text = export.to_json()
    elif fmt == "chrome":
        text = export.to_chrome()
    else:
        text = export.render_report()
    if out is not None:
        out.write_text(text.rstrip("\n") + "\n")
        print(f"telemetry written to {out}")
    else:
        print(text)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "queue": _cmd_queue,
    "hypothetical": _cmd_hypothetical,
    "serve": _cmd_serve,
    "publish": _cmd_publish,
    "telemetry": _cmd_telemetry,
    "audit": _cmd_audit,
    "lint": run_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()
    fmt = getattr(args, "telemetry", None)
    if fmt is not None:
        # The flag overrides REPRO_TELEMETRY=0: asking for a dump implies
        # wanting it populated.
        from repro.obs.metrics import set_enabled

        set_enabled(True)
    rc = _COMMANDS[args.command](args)
    if fmt is not None:
        _dump_telemetry(fmt, args.telemetry_out)
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
