"""Nestable spans: where did this run spend its time (and allocations)?

A :func:`span` context manager opens a node in a tree of
:class:`Span` records::

    with span("featurize") as root:
        with span("snapshots"):
            ...
        with span("assemble"):
            ...
    root.elapsed            # wall seconds of the whole block
    root.children           # the two inner records

Spans always measure — they are coarse-grained (per pipeline stage,
training epoch, scheduling pass) and the record is what callers like
:class:`~repro.features.pipeline.FeatureMatrix` derive their stage
timings from, so ``REPRO_TELEMETRY=0`` does not blank them.  What the
flag controls is the *retention* of finished root spans for snapshot
export (and all registry metrics; see :mod:`repro.obs.metrics`).

Each thread has its own span stack, so concurrent trainers nest
correctly.

Allocation accounting uses ``sys.getallocatedblocks()`` deltas: the
count of live CPython heap blocks is maintained by the allocator anyway,
so reading it is ~free, and a large positive delta over a span is a
reliable "this stage materialised a lot" signal without tracemalloc's
overhead.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.metrics import telemetry_enabled

__all__ = [
    "Span",
    "Tracer",
    "current_context",
    "current_span",
    "get_tracer",
    "reset",
    "span",
    "span_timings",
]


@dataclass
class Span:
    """One timed region; a node of the trace tree.  Picklable.

    Every span carries a stable ``(trace_id, span_id)`` pair; spans of
    one logical request share the ``trace_id`` even when they live in
    different threads' trees (the serve path hands the context across
    the batcher boundary explicitly), and ``parent_id`` records the
    causal parent whether or not it is the structural one.
    """

    name: str
    elapsed: float = 0.0  # wall seconds
    alloc_blocks: int = 0  # net live-heap-block delta over the span
    count: int = 1  # >1 after renderer-side merging of same-name siblings
    meta: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    start: float = 0.0  # perf_counter seconds at open (one process clock)
    tid: int = 0  # opening thread's ident (chrome export lanes)

    def __post_init__(self) -> None:
        if not self.span_id:
            self.span_id = new_span_id()
        if not self.trace_id:
            self.trace_id = new_trace_id()

    def context(self, request_id: str | None = None) -> TraceContext:
        """This span's identity, packaged for explicit hand-off."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id, request_id=request_id
        )

    def to_dict(self) -> dict:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "alloc_blocks": self.alloc_blocks,
            "count": self.count,
            "meta": dict(self.meta),
            "children": [c.to_dict() for c in self.children],
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        """Rebuild from :meth:`to_dict` output.  Version-1 snapshots
        (PR 3, before span ids existed) load fine: missing ids are
        regenerated, missing timestamps default to zero."""
        return cls(
            name=str(d["name"]),
            elapsed=float(d.get("elapsed", 0.0)),
            alloc_blocks=int(d.get("alloc_blocks", 0)),
            count=int(d.get("count", 1)),
            meta=dict(d.get("meta", {})),
            children=[cls.from_dict(c) for c in d.get("children", [])],
            trace_id=str(d.get("trace_id", "")),
            span_id=str(d.get("span_id", "")),
            parent_id=str(d.get("parent_id", "")),
            start=float(d.get("start", 0.0)),
            tid=int(d.get("tid", 0)),
        )


class Tracer:
    """Per-thread span stacks plus a bounded buffer of finished roots.

    ``max_roots`` caps retained history so a long-lived server never
    grows without bound; exporters drain what is there.
    """

    def __init__(self, max_roots: int = 128, retain: bool | None = None) -> None:
        self._local = threading.local()
        self._roots_lock = threading.Lock()
        self.roots: deque[Span] = deque(maxlen=max_roots)
        #: Retain finished roots for export.  Off under
        #: ``REPRO_TELEMETRY=0`` so the disabled path keeps no history.
        self.retain = telemetry_enabled() if retain is None else retain

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self, request_id: str | None = None) -> TraceContext | None:
        """The innermost open span's identity, for cross-thread hand-off."""
        cur = self.current()
        return None if cur is None else cur.context(request_id)

    @contextmanager
    def span(
        self,
        name: str,
        context: TraceContext | None = None,
        **meta: object,
    ) -> Iterator[Span]:
        """Open a span.  ``context`` continues a trace started elsewhere
        (another thread, another process): the new span adopts its
        ``trace_id`` and records its ``span_id`` as parent, taking
        precedence over this thread's stack."""
        stack = self._stack()
        if context is not None:
            rec = Span(
                name,
                meta=dict(meta),
                trace_id=context.trace_id,
                parent_id=context.span_id,
            )
        elif stack:
            parent = stack[-1]
            rec = Span(
                name,
                meta=dict(meta),
                trace_id=parent.trace_id,
                parent_id=parent.span_id,
            )
        else:
            rec = Span(name, meta=dict(meta))
        rec.tid = threading.get_ident()
        stack.append(rec)
        b0 = sys.getallocatedblocks()
        rec.start = t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.elapsed = time.perf_counter() - t0
            rec.alloc_blocks = sys.getallocatedblocks() - b0
            stack.pop()
            if stack:
                stack[-1].children.append(rec)
            elif self.retain:
                with self._roots_lock:
                    self.roots.append(rec)

    def drain(self) -> list[Span]:
        """Remove and return all finished root spans."""
        with self._roots_lock:
            out = list(self.roots)
            self.roots.clear()
        return out

    def reset(self) -> None:
        self._local = threading.local()
        with self._roots_lock:
            self.roots.clear()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer all library spans go through."""
    return _TRACER


def span(name: str, context: TraceContext | None = None, **meta: object):
    """Open a span on the global tracer (the usual entry point)."""
    return _TRACER.span(name, context=context, **meta)


def current_span() -> Span | None:
    return _TRACER.current()


def current_context(request_id: str | None = None) -> TraceContext | None:
    """The global tracer's innermost open-span context on this thread."""
    return _TRACER.current_context(request_id)


def reset() -> None:
    _TRACER.reset()


def span_timings(rec: Span) -> dict[str, float]:
    """Stage → wall-seconds mapping of a span's direct children.

    The shape :func:`repro.eval.report.format_timing_report` consumes
    (and the successor of the hand-rolled ``FeatureMatrix.timings``
    plumbing): one entry per direct child, plus ``"total"`` for the span
    itself.  Same-name siblings accumulate.
    """
    out: dict[str, float] = {}
    for child in rec.children:
        out[child.name] = out.get(child.name, 0.0) + child.elapsed
    out["total"] = rec.elapsed
    return out
