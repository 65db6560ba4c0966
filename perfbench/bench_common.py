"""Shared pieces of the benchmark workloads.

- :class:`Context` / :class:`Outcome` — what a workload receives and returns;
- :class:`Layers` — wraps each call into a program layer in a span when
  the pass is traced, and does nothing otherwise;
- :func:`span_totals` / :func:`counter_total` — read the span trees and
  the metrics registry the program already records;
- :func:`prepare_model` — the resident model the live and serve workloads
  answer with: simulate a history, featurize it, train on it.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core import TroutConfig, train_trout
from repro.core.training import build_feature_matrix
from repro.obs import export, metrics, tracing
from repro.workload import WorkloadConfig, generate_trace

#: Trace shape shared by every workload (the ``benchmarks/conftest.py``
#: defaults): bottleneck-pool load 0.32 on a 0.05-scale Anvil.
LOAD = 0.32
CLUSTER_SCALE = 0.05
#: Jobs in the history the live and serve workloads train and answer on.
HISTORY_JOBS = 5_000


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    root: Path
    src: Path
    out_dir: Path


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def peak_rss_mb() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(fn: Callable[[], object], repeats: int = 3) -> tuple[float, list]:
    """Run a set-up ``repeats`` times; median seconds and every result."""
    times, results = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return median(times), results


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class Layers:
    """Span factory for one pass: real spans when traced, no-ops when not.

    Spans go through the program's global tracer, so the program's own
    spans (``simulate``, ``featurize``, ``train.classifier``, …) nest under
    the benchmark's ``bench.*`` spans.  Finished roots are drained after
    every operation into :attr:`roots`, which stays in memory until the
    snapshot is written.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.roots: list[tracing.Span] = []

    def span(self, name: str, **meta: object):
        return tracing.span(name, **meta) if self.traced else nullcontext()

    def collect(self) -> None:
        if self.traced:
            self.roots.extend(tracing.get_tracer().drain())


@contextmanager
def traced_pass(layers: Layers) -> Iterator[metrics.MetricsRegistry]:
    """Start a traced pass from an empty registry and span buffer."""
    reg = metrics.get_registry()
    metrics.set_enabled(True)
    reg.reset()
    tracing.get_tracer().drain()
    yield reg
    layers.collect()


def write_snapshot(ctx: Context, workload: str, roots: list[tracing.Span]) -> Path:
    """Write the traced pass as a program telemetry snapshot."""
    tracer = tracing.Tracer(max_roots=max(1, len(roots)), retain=True)
    tracer.roots.extend(roots)
    snap = export.snapshot(metrics.get_registry(), tracer)
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    path = ctx.out_dir / f"{workload}.trace.json"
    path.write_text(json.dumps(snap))
    return path


def span_totals(roots: Iterable[tracing.Span]) -> dict[str, tuple[float, int]]:
    """``span name → (total elapsed seconds, count)`` over whole trees."""
    out: dict[str, tuple[float, int]] = {}
    stack = list(roots)
    while stack:
        s = stack.pop()
        total, count = out.get(s.name, (0.0, 0))
        out[s.name] = (total + s.elapsed, count + s.count)
        stack.extend(s.children)
    return out


def span_meta_total(roots: Iterable[tracing.Span], name: str, key: str) -> float:
    """Sum of the metadata value ``key`` over every span called ``name``."""
    out, stack = 0.0, list(roots)
    while stack:
        s = stack.pop()
        if s.name == name:
            out += float(s.meta.get(key, 0))
        stack.extend(s.children)
    return out


def span_seconds(totals: dict[str, tuple[float, int]], name: str) -> float:
    return totals.get(name, (0.0, 0))[0]


def counter_total(reg: metrics.MetricsRegistry, name: str) -> float:
    """Sum of a counter or gauge over all its label sets."""
    return float(
        sum(m.value for n, _labels, m in reg.items() if n == name)
    )


# ---------------------------------------------------------------------- #
# the resident model of the live and serve workloads
# ---------------------------------------------------------------------- #
@dataclass
class Prepared:
    jobs: object  # JobSet
    cluster: object
    fm: object  # FeatureMatrix of the whole history
    runtime: object  # RuntimePredictor
    model: object  # TroutModel


def prepare_model(seed: int) -> Prepared:
    """Simulate ``HISTORY_JOBS`` jobs, featurize them and train TROUT."""
    config = WorkloadConfig(
        n_jobs=HISTORY_JOBS, seed=seed, load=LOAD, cluster_scale=CLUSTER_SCALE
    )
    result, cluster = generate_trace(config)
    trout_config = TroutConfig(seed=0)
    fm, runtime = build_feature_matrix(result.jobs, cluster, trout_config)
    trained = train_trout(fm, trout_config)
    return Prepared(
        jobs=result.jobs,
        cluster=cluster,
        fm=fm,
        runtime=runtime,
        model=trained.model,
    )


def same_model(a: Prepared, b: Prepared) -> bool:
    """Two preparations from one seed must train identical networks."""
    probe = a.fm.X[: min(256, len(a.fm))]
    return bool(
        np.array_equal(a.fm.X, b.fm.X)
        and np.array_equal(
            a.model.predict_minutes(probe), b.model.predict_minutes(probe)
        )
    )
