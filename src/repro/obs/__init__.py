"""Observability: process-wide metrics, pipeline tracing, exporters.

A dependency-free telemetry layer for the serving-scale north star.  Three
pieces, wired through every subsystem:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, cheap enough to leave on
  and a no-op when disabled via ``REPRO_TELEMETRY=0``;
- :mod:`repro.obs.tracing` — nestable :func:`span` context managers that
  build a tree of wall-time/allocation records (the successor of the
  ad-hoc ``FeatureMatrix.timings`` plumbing);
- :mod:`repro.obs.export` — Prometheus-text, JSON snapshot, and Chrome
  trace-event exporters plus a terminal renderer
  (``trout … --telemetry=report``);
- :mod:`repro.obs.context` — request/trace/span id generation and the
  :class:`TraceContext` hand-off that joins spans across threads;
- :mod:`repro.obs.events` — the leveled JSON-lines event stream
  (bounded ring + rotating file sink) carrying request-scoped records.

Overhead contract (held by ``benchmarks/test_a12_telemetry_overhead.py``):
the instrumented feature pipeline runs ≤5 % slower with telemetry on than
off, and the ``REPRO_TELEMETRY=0`` path costs ≤1 % — instrumentation is
coarse-grained (per stage / epoch / scheduling pass, never per row).
"""

from repro.obs.context import (
    TraceContext,
    clean_request_id,
    new_request_id,
    new_span_id,
    new_trace_id,
    wall_now,
)
from repro.obs.events import (
    EventLog,
    EventSchemaError,
    configure_event_log,
    emit,
    get_event_log,
    iter_jsonl,
    reset_event_log,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_buckets,
    set_enabled,
    telemetry_enabled,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_context,
    current_span,
    get_tracer,
    span,
    span_timings,
)

__all__ = [
    "Counter",
    "EventLog",
    "EventSchemaError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceContext",
    "clean_request_id",
    "configure_event_log",
    "emit",
    "get_event_log",
    "get_registry",
    "iter_jsonl",
    "log_buckets",
    "new_request_id",
    "new_span_id",
    "new_trace_id",
    "reset_event_log",
    "set_enabled",
    "telemetry_enabled",
    "wall_now",
    "Span",
    "Tracer",
    "current_context",
    "current_span",
    "get_tracer",
    "span",
    "span_timings",
]
