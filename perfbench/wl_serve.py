"""``serve_http``: ``trout serve`` under an open-loop Poisson load.

Set-up (three times; the median is ``setup_s``): train the resident model
as ``live_queries`` does, save it, start ``trout serve --model-dir <dir>
--port 0`` with default flags in a child process and wait for
``/healthz``.  The last child stays up for the measurement and is always
stopped with SIGTERM, also when the run fails.

Load: a generator thread releases requests at Poisson arrival instants;
at most ``CONNECTIONS`` keep-alive connections send them, so a request
that finds both busy waits.  Latency runs from the instant a request was
due to the end of its response.  The base phase runs at ``BASE_RPS``
(derived below from the simulated history's submission rate); the
ladder then climbs ``LADDER_RPS`` until a step misses the p95 limit,
builds a backlog or fails a request.  Every response must be a 200 whose
``p_long``/``minutes`` match an in-process ``TroutModel.predict`` of the
same row; rows within 1e-4 of the decision threshold are not sent.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from bench_common import (
    CLUSTER_SCALE,
    Context,
    Outcome,
    median,
    overhead_pct,
    percentile,
    prepare_model,
    write_snapshot,
)
from repro.core.hierarchical import TroutModel
from repro.obs import tracing

#: One connection per CPU of the 2-vCPU machine the benchmark was sized
#: on: more client threads than cores would measure the client's own
#: scheduling.  Fixed, so that runs on other machines compare.
CONNECTIONS = 2
#: The base rate is one ``/predict`` per submitted job ("how long will my
#: job wait?") at the pace of the simulated history's busiest minute,
#: scaled from the 0.05-scale cluster to the full-size Anvil the model
#: stands for.  Over the 5k-job histories of seeds 1-20 the busiest minute
#: held 20-34 submissions, median 25: 500 jobs/min, 8.33 requests/s.
BUSIEST_MINUTE_JOBS = 25
BASE_RPS = BUSIEST_MINUTE_JOBS / 60.0 / CLUSTER_SCALE
#: Rates tried after the base phase, as multiples of the base rate, each
#: for ``STEP_S`` seconds.
LADDER_RPS = tuple(BASE_RPS * k for k in (2, 4, 8, 16, 32))
STEP_S = 3.0
#: Share of the run spent in the base phase (the rest is the ladder).
BASE_SHARE = 0.55
#: Latency limit on the p95 at a ladder step.
P95_LIMIT_MS = 250.0
#: Tail percentile reported at the base rate.  About 6-8 % of requests
#: there pay a ~40 ms keep-alive stall, so the p95 sits on the edge of
#: that mode and jumps between ~20 and ~50 ms from run to run; the p99
#: lies inside it.
TAIL_PCT = 99
#: Distinct feature rows sent, drawn uniformly from the history's jobs.
ROWS = 400
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
#: Requests still queued this long after a phase's schedule ends fail unsent.
GIVE_UP_AFTER_S = 20.0


# ---------------------------------------------------------------------- #
# the server child
# ---------------------------------------------------------------------- #
@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    log_path: str

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


def start_server(ctx: Context, model_dir: str, workdir: str) -> Server:
    """Start ``trout serve`` on an ephemeral port; return once healthy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.src)
    env["PYTHONUNBUFFERED"] = "1"
    log_path = os.path.join(workdir, f"serve-{time.monotonic_ns()}.log")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve",
             "--model-dir", model_dir, "--port", "0"],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ctx.root,
        )
    server = Server(proc, 0, log_path)
    try:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"trout serve exited with {proc.returncode}")
            server.port = _listening_port(log_path)
            if server.port:
                try:
                    if server.get("/healthz")[0] == 200:
                        return server
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("trout serve did not become healthy")
    except BaseException:
        server.stop()
        raise


def _listening_port(log_path: str) -> int:
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("listening on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
    return 0


def scrape(server: Server) -> dict[str, float]:
    """``/metrics`` as ``series → value`` (labels kept in the key)."""
    status, body = server.get("/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


# ---------------------------------------------------------------------- #
# open-loop load
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    backlog: int = 0
    errors: list[str] = field(default_factory=list)
    #: ``/metrics`` scraped just before and just after the phase
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)

    def delta(self, key: str) -> float:
        return self.after.get(key, 0.0) - self.before.get(key, 0.0)

    def mean_ms(self, hist: str) -> float:
        n = self.delta(f"{hist}_count")
        return 1000.0 * self.delta(f"{hist}_sum") / n if n else 0.0

    def p95_ms(self) -> float:
        return percentile(self.latencies_ms, 95) if self.latencies_ms else float("inf")

    def passes(self) -> bool:
        backlog_limit = max(2.0, self.rate * P95_LIMIT_MS / 1000.0)
        return (
            self.failed == 0
            and self.backlog <= backlog_limit
            and self.p95_ms() <= P95_LIMIT_MS
        )


@dataclass
class Rows:
    bodies: list[bytes]
    reference: list  # TroutPrediction per row


def _check(payload: dict, ref) -> str | None:
    if payload.get("long_wait") != ref.long_wait:
        return "long_wait differs"
    if not np.isclose(payload["p_long"], ref.p_long, rtol=1e-4, atol=1e-6):
        return f"p_long {payload['p_long']} vs {ref.p_long}"
    if ref.long_wait:
        if payload["minutes"] is None or not np.isclose(
            payload["minutes"], ref.minutes, rtol=1e-4, atol=1e-4
        ):
            return f"minutes {payload['minutes']} vs {ref.minutes}"
    elif payload["minutes"] is not None:
        return "minutes for a quick-start job"
    return None


def _connect(server: Server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def _post(conn: http.client.HTTPConnection, body: bytes, ref) -> str | None:
    """One keep-alive ``/predict``; an error message or None."""
    conn.request(
        "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    payload = resp.read()
    if resp.status != 200:
        return f"HTTP {resp.status}: {payload[:200]!r}"
    return _check(json.loads(payload), ref)


def run_phase(
    server: Server,
    rows: Rows,
    rate: float,
    seconds: float,
    rng: np.random.Generator,
    tracer: tracing.Tracer | None = None,
) -> Phase:
    """Send Poisson arrivals at ``rate`` for ``seconds``; wait for all."""
    phase = Phase(rate, before=scrape(server))
    # The first request goes at once, so even a short phase sends one.
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 3) + 16)
    due_offsets = np.cumsum(gaps) - gaps[0]
    due_offsets = due_offsets[due_offsets < seconds]
    picks = rng.integers(0, len(rows.bodies), size=len(due_offsets))
    work: queue.Queue = queue.Queue()
    lock = threading.Lock()

    def sender() -> None:
        conn = _connect(server)
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                due, i = item
                if time.perf_counter() > give_up:
                    error = "not sent: the server fell too far behind"
                    with lock:
                        phase.failed += 1
                        phase.errors.append(error)
                    continue
                span = (
                    tracer.span("bench.request", row=i)
                    if tracer is not None
                    else nullcontext()
                )
                with span:
                    try:
                        error = _post(conn, rows.bodies[i], rows.reference[i])
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = _connect(server)
                done = time.perf_counter()
                with lock:
                    phase.latencies_ms.append(1000.0 * (done - due))
                    if error is not None:
                        phase.failed += 1
                        phase.errors.append(error)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    t0 = time.perf_counter()
    # A stuck server must not hold the run past its time limit.
    give_up = t0 + seconds + GIVE_UP_AFTER_S
    for t in threads:
        t.start()
    for offset, i in zip(due_offsets, picks):
        due = t0 + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.lags_ms.append(1000.0 * (time.perf_counter() - due))
        work.put((due, int(i)))
        phase.sent += 1
    phase.backlog = work.qsize()
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join(timeout=GIVE_UP_AFTER_S + 30)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("load generator did not drain")
    phase.after = scrape(server)
    return phase


def _rows(prep, model: TroutModel, seed: int) -> Rows:
    """Real feature rows away from the classifier threshold."""
    X = prep.fm.X
    p = model.classifier.predict_proba(X)
    keep = np.flatnonzero(np.abs(p - model.classifier.config.threshold) > 1e-4)
    pick = np.random.default_rng(seed).choice(keep, size=min(ROWS, len(keep)), replace=False)
    rows = X[pick]
    return Rows(
        bodies=[
            json.dumps({"features": [float(v) for v in row]}).encode() for row in rows
        ],
        reference=[model.predict(rows[i : i + 1])[0] for i in range(len(rows))],
    )


# ---------------------------------------------------------------------- #
def run(ctx: Context) -> Outcome:
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=ctx.out_dir)
    servers: list[Server] = []
    try:
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            # Stop the previous set-up's server before timing the next.
            while servers:
                servers.pop().stop()
            t0 = time.perf_counter()
            prep = prepare_model(ctx.seed)
            model_dir = os.path.join(workdir, f"model-{attempt}")
            prep.model.save(model_dir)
            servers.append(start_server(ctx, model_dir, workdir))
            setup_times.append(time.perf_counter() - t0)
        setup_s = median(setup_times)
        server = servers[-1]
        rows = _rows(prep, TroutModel.load(model_dir), ctx.seed)
        rng = np.random.default_rng(ctx.seed)
        if ctx.traced:
            return _traced(ctx, server, rows, rng)
        return _untraced(ctx, server, rows, rng, setup_s)
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def max_rate(phases: list[Phase]) -> float:
    """The highest rate that meets the limit.

    Between the last passing step and a first failing one whose p95 broke
    the limit, the rate where the p95 reaches the limit is interpolated
    linearly, so the capacity reads in requests/s rather than in ladder
    steps.  A step that failed requests or built a backlog under the limit
    gives no such estimate.
    """
    passing = list(itertools.takewhile(Phase.passes, phases))
    if not passing:
        return 0.0
    best = passing[-1]
    if len(passing) == len(phases):
        return best.rate
    failing = phases[len(passing)]
    lo, hi = best.p95_ms(), failing.p95_ms()
    if failing.failed or hi <= P95_LIMIT_MS:
        return best.rate
    return best.rate + (P95_LIMIT_MS - lo) / (hi - lo) * (failing.rate - best.rate)


def _untraced(ctx, server, rows, rng, setup_s) -> Outcome:
    base = run_phase(server, rows, BASE_RPS, ctx.seconds * BASE_SHARE, rng)
    phases = [base]
    ladder_deadline = time.perf_counter() + ctx.seconds * (1.0 - BASE_SHARE)
    for rate in LADDER_RPS:
        if not phases[-1].passes() or time.perf_counter() + STEP_S > ladder_deadline:
            break
        phases.append(run_phase(server, rows, rate, STEP_S, rng))
    failed = sum(p.failed for p in phases)
    return Outcome(
        attempted=sum(p.sent for p in phases),
        failed=failed,
        errors=[e for p in phases for e in p.errors],
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": server.peak_rss_mb(),
            "latency_p50_ms": median(base.latencies_ms),
            "latency_tail_ms": percentile(base.latencies_ms, TAIL_PCT),
            "throughput_per_s": max_rate(phases),
        },
        notes=[
            f"base: {base.sent} requests at {BASE_RPS:.3g}/s",
            "phases: " + ", ".join(
                f"{p.rate:.3g}/s p95={p.p95_ms():.1f}ms backlog={p.backlog} "
                f"failed={p.failed} "
                f"handler={p.mean_ms('serve_request_seconds'):.1f}ms "
                f"shed={p.delta('serve_shed_total'):g}"
                for p in phases
            ),
        ],
    )


def _traced(ctx, server, rows, rng) -> Outcome:
    half = ctx.seconds / 2
    plain = run_phase(server, rows, BASE_RPS, half, rng)
    tracer = tracing.Tracer(max_roots=1_000_000, retain=True)
    traced = run_phase(server, rows, BASE_RPS, half, rng, tracer=tracer)
    path = write_snapshot(ctx, "serve_http", tracer.drain())
    client_ms = float(np.mean(traced.latencies_ms))
    request_ms = traced.mean_ms("serve_request_seconds")
    batches = traced.delta("serve_batches_total")
    metrics = {
        "serve.request_mean_ms": request_ms,
        "serve.transport_ms": client_ms - request_ms,
        "serve.queue_wait_mean_ms": traced.mean_ms("serve_queue_wait_seconds"),
        "serve.batch_wait_mean_ms": traced.mean_ms("serve_batch_wait_seconds"),
        "serve.rows_per_batch": (
            traced.delta("serve_batched_requests_total") / batches if batches else 0.0
        ),
        "serve.shed": traced.delta("serve_shed_total"),
        "serve.prediction_failures": traced.delta("serve_prediction_failures_total"),
        "serve.generator_lag_ms": float(np.mean(traced.lags_ms)),
        "trace.coverage_pct": 100.0 * request_ms / client_ms,
        "trace_overhead_pct": overhead_pct(
            median(traced.latencies_ms), median(plain.latencies_ms)
        ),
    }
    return Outcome(
        attempted=plain.sent + traced.sent,
        failed=plain.failed + traced.failed,
        errors=plain.errors + traced.errors,
        metrics=metrics,
        notes=[
            f"requests: {plain.sent} untraced, {traced.sent} traced at {BASE_RPS:.3g}/s",
            f"trace snapshot: {path}",
        ],
    )
