"""Request micro-batcher: many concurrent callers, one model pass.

Single-request serving wastes the NN's batch throughput — a forward pass
over 32 rows costs barely more than over one (the PR-4 allocation-free
path amortises its fixed per-call work across rows).  The batcher owns a
bounded queue of pending requests and one worker thread that drains it:
the first request opens a batch, further arrivals join until either
``max_batch`` rows are collected or ``max_wait`` elapses, then the whole
block goes through ``predict_fn`` in one call.  With ``max_wait`` 0 (the
default) a batch is whatever is already queued when the worker pops the
first request: a lone request is dispatched at once, and batches still
fill under load because requests pile up while the worker computes.  A
positive ``max_wait`` opts into a coalescing window for larger batches.

Concurrency contract, relied on by the serve test suite:

- only the worker thread ever touches the shared row workspace; caller
  rows are **copied in** before the model call and results are plain
  per-request Python objects, so nothing a caller receives aliases the
  workspace;
- every submitted ticket is resolved exactly once (result or error),
  including on shutdown;
- ``submit`` never blocks on the model: a full queue raises
  :class:`QueueFullError` immediately (admission control's shed signal).
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic, perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.obs import tracing
from repro.obs.context import TraceContext
from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger

__all__ = ["BatchTicket", "MicroBatcher", "QueueFullError"]

log = get_logger(__name__)


class QueueFullError(RuntimeError):
    """The pending-request queue is at ``queue_depth`` — shed the request."""


class BatchTicket:
    """One pending request: a feature row in, one result or error out.

    Besides the row and the outcome, a ticket carries the caller's
    :class:`TraceContext` across the thread boundary (so the worker's
    batch span can continue the request's trace) and reports back the
    latency split the worker measured: how long the ticket queued, how
    long its batch's model call took, and how many requests shared it.
    """

    __slots__ = (
        "row",
        "result",
        "error",
        "_event",
        "context",
        "enqueued_at",
        "queue_wait_s",
        "compute_s",
        "batch_size",
    )

    def __init__(self, row: np.ndarray, context: TraceContext | None = None) -> None:
        self.row = row
        self.result: object | None = None
        self.error: BaseException | None = None
        self._event = threading.Event()
        self.context = context
        self.enqueued_at = 0.0
        self.queue_wait_s = 0.0
        self.compute_s = 0.0
        self.batch_size = 0

    def resolve(self, result: object) -> None:
        self.result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    def wait(self, timeout: float | None = None) -> object:
        """Block until resolved; re-raises the batch's error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction did not complete in time")
        if self.error is not None:
            raise self.error
        return self.result


class MicroBatcher:
    """Coalesce concurrent prediction requests into bounded batches.

    Parameters
    ----------
    predict_fn:
        Called from the worker thread with a ``(n, n_features)`` float64
        view into the reused workspace (``1 <= n <= max_batch``); must
        return one result per row.  Swappable at runtime (hot reload
        assigns a new closure); the assignment is atomic, and a batch in
        flight finishes on whichever function it started with.
    max_wait_s:
        Coalescing window after the first request of a batch is popped.
        0 dispatches what is already queued (up to ``max_batch``)
        without waiting.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], Sequence[object]],
        n_features: int,
        max_batch: int = 32,
        max_wait_s: float = 0.0,
        queue_depth: int = 128,
    ) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.predict_fn = predict_fn
        self.n_features = n_features
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.queue_depth = queue_depth
        self._queue: deque[BatchTicket] = deque()
        self._cond = threading.Condition()
        self._closed = False
        # Shared batch workspace: worker-thread-only by contract.
        self._workspace = np.empty((max_batch, n_features), dtype=np.float64)
        reg = get_registry()
        self._batches_total = reg.counter(
            "serve_batches_total", help="model calls made by the micro-batcher"
        )
        self._batched_requests_total = reg.counter(
            "serve_batched_requests_total",
            help="requests answered through the micro-batcher",
        )
        self._batch_errors_total = reg.counter(
            "serve_batch_errors_total",
            help="batches whose model call raised",
        )
        self._queue_depth_gauge = reg.gauge(
            "serve_queue_depth", help="requests waiting for a batch slot"
        )
        self._batch_wait = reg.histogram(
            "serve_batch_wait_seconds",
            help="time the first request of each batch waited for company",
            buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1),
        )
        self._queue_wait = reg.histogram(
            "serve_queue_wait_seconds",
            help="time a ticket sat in the deque before its batch opened",
            buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25),
        )
        self._thread = threading.Thread(
            target=self._run, name="trout-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    def submit(
        self, row: np.ndarray, context: TraceContext | None = None
    ) -> BatchTicket:
        """Enqueue one feature row; raises :class:`QueueFullError` when the
        pending queue is at ``queue_depth`` and on a closed batcher.

        ``context`` (the caller's open span + request id) rides the
        ticket so the worker's batch span continues the request's trace.
        """
        row = np.ascontiguousarray(row, dtype=np.float64)
        if row.shape != (self.n_features,):
            raise ValueError(
                f"expected a ({self.n_features},) feature row, got {row.shape}"
            )
        ticket = BatchTicket(row, context=context)
        ticket.enqueued_at = perf_counter()
        with self._cond:
            if self._closed:
                raise QueueFullError("batcher is shut down")
            if len(self._queue) >= self.queue_depth:
                raise QueueFullError(
                    f"queue depth {self.queue_depth} reached"
                )
            self._queue.append(ticket)
            self._queue_depth_gauge.set(float(len(self._queue)))
            self._cond.notify()
        return ticket

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; unresolved tickets fail with QueueFullError."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)
        with self._cond:
            drained = list(self._queue)
            self._queue.clear()
        for ticket in drained:
            ticket.fail(QueueFullError("batcher shut down before serving"))

    # ------------------------------------------------------------------ #
    def _collect(self) -> tuple[list[BatchTicket], float] | None:
        """Block for the first ticket, then gather until full or deadline.

        Returns the batch and the ``perf_counter`` time its first ticket
        was popped, so the batch-wait histogram excludes idle time.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            popped = perf_counter()
            deadline = monotonic() + self.max_wait_s
            while len(batch) < self.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            self._queue_depth_gauge.set(float(len(self._queue)))
            return batch, popped

    def _run(self) -> None:
        while True:
            collected = self._collect()
            if collected is None:
                return
            batch, popped = collected
            opened = perf_counter()
            self._batch_wait.observe(opened - popped)
            n = len(batch)
            rows = self._workspace[:n]
            context = None
            for i, ticket in enumerate(batch):
                rows[i] = ticket.row
                ticket.queue_wait_s = opened - ticket.enqueued_at
                ticket.batch_size = n
                self._queue_wait.observe(ticket.queue_wait_s)
                if context is None:
                    context = ticket.context
            predict = self.predict_fn  # snapshot: hot reload swaps this
            # The batch span continues the oldest member's trace; the
            # other members connect through their request spans' meta
            # and the request_ids recorded here.
            request_ids = [
                t.context.request_id
                for t in batch
                if t.context is not None and t.context.request_id
            ]
            try:
                with tracing.span(
                    "serve.batch",
                    context=context,
                    batch_size=n,
                    request_ids=request_ids,
                ) as batch_span:
                    results = predict(rows)
                if len(results) != n:
                    raise RuntimeError(
                        f"predict_fn returned {len(results)} results "
                        f"for {n} rows"
                    )
            except Exception as exc:
                self._batch_errors_total.inc()
                emit(
                    "serve.batch_failed",
                    level="error",
                    batch_size=n,
                    request_ids=request_ids,
                    error=str(exc),
                )
                for ticket in batch:
                    ticket.fail(exc)
                continue
            compute_s = batch_span.elapsed
            self._batches_total.inc()
            self._batched_requests_total.inc(float(n))
            for ticket, result in zip(batch, results):
                ticket.compute_s = compute_s
                ticket.resolve(result)
