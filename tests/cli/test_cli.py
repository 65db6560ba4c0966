"""The trout CLI, exercised through main() in-process."""

import numpy as np
import pytest

from repro.cli.main import build_parser, main
from repro.data.swf import read_swf


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulate once, train once; individual tests reuse the artefacts."""
    ws = tmp_path_factory.mktemp("cli")
    trace = ws / "trace.swf"
    model = ws / "model"
    rc = main(
        ["simulate", "--n-jobs", "4000", "--seed", "11", "--load", "0.5", "--out", str(trace)]
    )
    assert rc == 0
    rc = main(["train", "--trace", str(trace), "--out", str(model), "--seed", "0"])
    assert rc == 0
    return trace, model


def test_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["simulate", "--out", "x.swf"])
    assert args.command == "simulate"
    with pytest.raises(SystemExit):
        p.parse_args([])  # subcommand required
    with pytest.raises(SystemExit):  # one simulator: no engine switch
        p.parse_args(["simulate", "--out", "x.swf", "--sim-engine", "fast"])


@pytest.mark.parametrize("load", ["0", "-1"])
def test_simulate_rejects_non_positive_load(load, tmp_path):
    with pytest.raises(ValueError, match="load"):
        main(["simulate", "--load", load, "--out", str(tmp_path / "t.swf")])


def test_simulate_writes_valid_trace(workspace):
    trace, _ = workspace
    jobs = read_swf(trace)
    assert len(jobs) == 4000
    jobs.validate()


def test_stats_prints_table(workspace, capsys):
    trace, _ = workspace
    assert main(["stats", "--trace", str(trace), "--head", "3"]) == 0
    out = capsys.readouterr().out
    assert "Requested Time (hr)" in out
    assert "JobID|User|Partition" in out


def test_train_creates_model_bundle(workspace):
    _, model = workspace
    assert (model / "classifier.npz").exists()
    assert (model / "regressor.npz").exists()
    assert (model / "meta.json").exists()
    assert (model / "runtime_model.pkl").exists()


def test_predict_existing_job(workspace, capsys):
    trace, model = workspace
    # Warm-up discard means ids don't start at 1; pick one from the trace.
    job_id = int(read_swf(trace).column("job_id")[100])
    rc = main(
        ["predict", "--model", str(model), "--trace", str(trace), "--job-id", str(job_id)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Predicted to" in out
    assert "actual queue time" in out


def test_predict_with_interval_flag(workspace, capsys):
    trace, model = workspace
    jobs = read_swf(trace)
    # Prefer a long-wait job so the interval branch can fire; fall back to
    # any job (the flag must not crash either way).
    q = jobs.queue_time_min
    candidates = np.flatnonzero(q > 10)
    idx = int(candidates[0]) if len(candidates) else 0
    job_id = int(jobs.column("job_id")[idx])
    rc = main(
        [
            "predict",
            "--model", str(model),
            "--trace", str(trace),
            "--job-id", str(job_id),
            "--interval",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Predicted to" in out


def test_predict_missing_job(workspace, capsys):
    trace, model = workspace
    rc = main(
        ["predict", "--model", str(model), "--trace", str(trace), "--job-id", "999999"]
    )
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_hypothetical_job(workspace, capsys):
    trace, model = workspace
    rc = main(
        [
            "hypothetical",
            "--model", str(model),
            "--trace", str(trace),
            "--partition", "shared",
            "--cpus", "64",
            "--timelimit-min", "480",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "hypothetical job" in out
    assert "Predicted to" in out


def test_queue_view(workspace, capsys):
    trace, model = workspace
    jobs = read_swf(trace)
    # Pick an instant where something is pending.
    q = jobs.queue_time_min
    waiting = np.flatnonzero(q > 2.0)
    rec = jobs.records
    t = float(
        0.5 * (rec["eligible_time"][waiting[0]] + rec["start_time"][waiting[0]])
    ) if len(waiting) else float(rec["eligible_time"].max())
    rc = main(["queue", "--trace", str(trace), "--at", str(t)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "queue state at" in out
    assert "JOBID" in out


def test_queue_view_with_predictions(workspace, capsys):
    trace, model = workspace
    jobs = read_swf(trace)
    q = jobs.queue_time_min
    waiting = np.flatnonzero(q > 2.0)
    if not len(waiting):
        return
    rec = jobs.records
    t = float(0.5 * (rec["eligible_time"][waiting[0]] + rec["start_time"][waiting[0]]))
    rc = main(
        ["queue", "--trace", str(trace), "--at", str(t), "--model", str(model)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Predicted to" in out


def test_hypothetical_unknown_partition(workspace, capsys):
    trace, model = workspace
    rc = main(
        [
            "hypothetical",
            "--model", str(model),
            "--trace", str(trace),
            "--partition", "nope",
        ]
    )
    assert rc == 1
    assert "unknown partition" in capsys.readouterr().err


def test_train_telemetry_report_prints_span_tree(workspace, tmp_path, capsys):
    trace, _ = workspace
    from repro.obs import metrics, tracing

    metrics.get_registry().reset()
    tracing.reset()
    rc = main(
        [
            "train",
            "--trace", str(trace),
            "--out", str(tmp_path / "model"),
            "--seed", "0",
            "--telemetry=report",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # The span tree must cover featurization, training epochs, evaluation.
    assert "featurize" in out
    assert "epoch" in out
    assert "evaluate.holdout" in out
    assert "nn_epochs_total" in out
    metrics.get_registry().reset()
    tracing.reset()


def test_telemetry_json_snapshot_round_trip(workspace, tmp_path, capsys):
    trace, model = workspace
    from repro.data.swf import read_swf as _read
    from repro.obs import metrics, tracing

    metrics.get_registry().reset()
    tracing.reset()
    job_id = int(_read(trace).column("job_id")[100])
    snap_path = tmp_path / "snap.json"
    rc = main(
        [
            "predict",
            "--model", str(model),
            "--trace", str(trace),
            "--job-id", str(job_id),
            "--telemetry=json",
            "--telemetry-out", str(snap_path),
        ]
    )
    assert rc == 0
    assert snap_path.exists()
    capsys.readouterr()
    # Saved snapshot renders through the telemetry subcommand.
    rc = main(["telemetry", str(snap_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "featurize" in out
    metrics.get_registry().reset()
    tracing.reset()


def test_telemetry_prom_format(workspace, tmp_path, capsys):
    trace, _ = workspace
    from repro.obs import metrics, tracing

    metrics.get_registry().reset()
    tracing.reset()
    rc = main(
        [
            "simulate",
            "--n-jobs", "300",
            "--seed", "5",
            "--out", str(tmp_path / "t.swf"),
            "--telemetry=prom",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# TYPE sim_scheduler_passes_total counter" in out
    assert "sim_jobs_started_total" in out
    metrics.get_registry().reset()
    tracing.reset()


def test_telemetry_subcommand_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["telemetry", str(bad)]) == 1
    assert "cannot read snapshot" in capsys.readouterr().err
    versioned = tmp_path / "old.json"
    versioned.write_text('{"version": 99, "metrics": {}, "spans": []}')
    assert main(["telemetry", str(versioned)]) == 1
    assert "version" in capsys.readouterr().err
