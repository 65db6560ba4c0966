"""Micro-batcher properties: exactly-once delivery, bounded batches, and
bitwise batched≡unbatched outputs for any arrival pattern and knobs.

The property tests drive the batcher with a deterministic row-wise stub
model, so "bitwise equal" is a routing statement — the batcher must hand
every caller exactly the prediction of its own row, never a neighbour's
and never one recomputed from a corrupted workspace slot.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import get_registry
from repro.serve import MicroBatcher, QueueFullError

N_FEATURES = 5


class RowWiseStub:
    """Deterministic per-row 'model' that records every batch it saw."""

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []
        self.rows_seen: list[float] = []
        self.lock = threading.Lock()
        self.weights = np.linspace(0.5, 2.5, N_FEATURES)

    def row_result(self, row: np.ndarray) -> tuple[float, float]:
        return (float(row[0]), float(row @ self.weights))

    def __call__(self, rows: np.ndarray) -> list[tuple[float, float]]:
        out = [self.row_result(row) for row in rows]
        with self.lock:
            self.batch_sizes.append(len(rows))
            self.rows_seen.extend(r[0] for r in out)
        return out


def _rows(n: int, rng: np.random.Generator) -> np.ndarray:
    rows = rng.normal(size=(n, N_FEATURES))
    rows[:, 0] = np.arange(n, dtype=np.float64)  # unique request tag
    return rows


@settings(deadline=None, max_examples=30)
@given(
    n_requests=st.integers(1, 30),
    max_batch=st.integers(1, 8),
    max_wait_ms=st.floats(0.0, 3.0),
    n_submitters=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_exactly_once_bounded_and_bitwise_equal(
    n_requests, max_batch, max_wait_ms, n_submitters, seed
):
    stub = RowWiseStub()
    batcher = MicroBatcher(
        stub,
        n_features=N_FEATURES,
        max_batch=max_batch,
        max_wait_s=max_wait_ms / 1000.0,
        queue_depth=n_requests,
    )
    try:
        rows = _rows(n_requests, np.random.default_rng(seed))
        tickets: dict[int, object] = {}
        lock = threading.Lock()

        def submit(indices) -> None:
            for i in indices:
                t = batcher.submit(rows[i])
                with lock:
                    tickets[i] = t

        chunks = np.array_split(np.arange(n_requests), n_submitters)
        threads = [
            threading.Thread(target=submit, args=(chunk,), daemon=True)
            for chunk in chunks
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert len(tickets) == n_requests

        results = {i: t.wait(30.0) for i, t in tickets.items()}
    finally:
        batcher.close()

    # Every request answered exactly once: the stub saw each tag once...
    assert sorted(stub.rows_seen) == list(range(n_requests))
    # ...batch sizes never exceeded the cap...
    assert stub.batch_sizes and max(stub.batch_sizes) <= max_batch
    assert sum(stub.batch_sizes) == n_requests
    # ...and every caller got the bitwise result of its own row.
    for i, (tag, value) in results.items():
        assert tag == float(i)
        assert value == stub.row_result(rows[i])[1]  # bitwise, not approx


@settings(deadline=None, max_examples=15)
@given(n_requests=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_single_request_batches_match_unbatched_reference(n_requests, seed):
    """max_batch=1 degenerates to pure single predictions — same answers."""
    stub = RowWiseStub()
    batcher = MicroBatcher(
        stub, n_features=N_FEATURES, max_batch=1, max_wait_s=0.0,
        queue_depth=n_requests,
    )
    try:
        rows = _rows(n_requests, np.random.default_rng(seed))
        tickets = [batcher.submit(row) for row in rows]
        for i, t in enumerate(tickets):
            assert t.wait(30.0) == stub.row_result(rows[i])
    finally:
        batcher.close()
    assert stub.batch_sizes == [1] * n_requests


# --------------------------------------------------------------------- #
# directed edge cases
# --------------------------------------------------------------------- #
def _stalled_batcher(queue_depth: int = 1):
    release = threading.Event()
    entered = threading.Event()

    def stalled(rows):
        entered.set()
        assert release.wait(30.0)
        return [(float(r[0]), 0.0) for r in rows]

    batcher = MicroBatcher(
        stalled,
        n_features=N_FEATURES,
        max_batch=1,
        max_wait_s=0.0,
        queue_depth=queue_depth,
    )
    return batcher, release, entered


def test_full_queue_sheds_immediately():
    batcher, release, entered = _stalled_batcher(queue_depth=1)
    try:
        first = batcher.submit(np.zeros(N_FEATURES))  # worker picks this up
        assert entered.wait(10.0)
        second = batcher.submit(np.ones(N_FEATURES))  # sits in the queue
        with pytest.raises(QueueFullError, match="queue depth 1"):
            batcher.submit(np.full(N_FEATURES, 2.0))
        release.set()
        assert first.wait(10.0)[0] == 0.0
        assert second.wait(10.0)[0] == 1.0
    finally:
        release.set()
        batcher.close()


def test_model_error_propagates_and_batcher_survives():
    calls = {"n": 0}

    def flaky(rows):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient model failure")
        return [(float(r[0]), 1.0) for r in rows]

    batcher = MicroBatcher(
        flaky, n_features=N_FEATURES, max_batch=4, max_wait_s=0.0,
        queue_depth=8,
    )
    try:
        bad = batcher.submit(np.zeros(N_FEATURES))
        with pytest.raises(RuntimeError, match="transient model failure"):
            bad.wait(10.0)
        good = batcher.submit(np.full(N_FEATURES, 3.0))
        assert good.wait(10.0) == (3.0, 1.0)
    finally:
        batcher.close()


def test_wrong_result_count_fails_the_batch():
    batcher = MicroBatcher(
        lambda rows: [1.0] * (len(rows) + 1),
        n_features=N_FEATURES,
        max_batch=2,
        max_wait_s=0.0,
        queue_depth=4,
    )
    try:
        ticket = batcher.submit(np.zeros(N_FEATURES))
        with pytest.raises(RuntimeError, match="results"):
            ticket.wait(10.0)
    finally:
        batcher.close()


def test_close_fails_unserved_tickets():
    batcher, release, entered = _stalled_batcher(queue_depth=4)
    in_flight = batcher.submit(np.zeros(N_FEATURES))
    assert entered.wait(10.0)
    queued = batcher.submit(np.ones(N_FEATURES))
    release.set()
    batcher.close()
    assert in_flight.wait(10.0)[0] == 0.0  # the running batch finished
    # The queued-but-never-batched ticket fails instead of hanging.
    try:
        queued.wait(0.0)
    except (QueueFullError, TimeoutError):
        pass
    else:  # it may legally have been served if the worker got to it first
        assert queued.result is not None


def test_submit_rejects_bad_shapes_and_closed_batcher():
    batcher = MicroBatcher(
        lambda rows: [0.0] * len(rows),
        n_features=N_FEATURES,
        max_batch=2,
        max_wait_s=0.0,
        queue_depth=4,
    )
    with pytest.raises(ValueError, match="feature row"):
        batcher.submit(np.zeros(N_FEATURES + 1))
    batcher.close()
    with pytest.raises(QueueFullError, match="shut down"):
        batcher.submit(np.zeros(N_FEATURES))


# --------------------------------------------------------------------- #
# the zero coalescing window (the serving default)
# --------------------------------------------------------------------- #
def test_zero_window_coalesces_rows_queued_while_worker_computes():
    """A window of 0 still batches under load: every row that arrives
    while the worker is inside the model rides the next batch."""
    k = 6
    stub = RowWiseStub()
    release = threading.Event()
    entered = threading.Event()

    def blocking(rows):
        entered.set()
        assert release.wait(30.0)
        return stub(rows)

    batcher = MicroBatcher(
        blocking, n_features=N_FEATURES, max_batch=8, max_wait_s=0.0,
        queue_depth=16,
    )
    rows = _rows(k + 1, np.random.default_rng(0))
    try:
        first = batcher.submit(rows[0])
        assert entered.wait(10.0)  # the worker holds a batch of one
        rest = [batcher.submit(row) for row in rows[1:]]
        release.set()
        for i, ticket in enumerate([first, *rest]):
            assert ticket.wait(10.0) == stub.row_result(rows[i])
    finally:
        release.set()
        batcher.close()
    assert stub.batch_sizes == [1, k]
    assert [t.batch_size for t in rest] == [k] * k


def test_batch_wait_excludes_idle_time():
    """``serve_batch_wait_seconds`` starts when the first ticket is
    popped, not when the worker began waiting on an empty queue."""
    gap_s = 0.2
    batcher = MicroBatcher(
        lambda rows: [0.0] * len(rows),
        n_features=N_FEATURES,
        max_batch=4,
        max_wait_s=0.0,
        queue_depth=4,
    )
    try:
        time.sleep(gap_s)  # the worker idles on an empty queue
        assert batcher.submit(np.zeros(N_FEATURES)).wait(10.0) == 0.0
    finally:
        batcher.close()
    hist = get_registry().histogram("serve_batch_wait_seconds")
    assert hist.count == 1
    assert hist.sum < gap_s / 4, hist.sum
