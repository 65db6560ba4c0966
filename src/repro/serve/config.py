"""Serving knobs, one dataclass.

Every number here is a contract the tests pin down: ``max_batch`` caps
the rows per NN pass, ``max_wait_ms`` bounds how long the first request
in a batch waits for company (0, the default, dispatches what is already
queued), ``queue_depth`` is the admission-control line beyond which
requests are shed with 503 + ``Retry-After``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs for the HTTP serving layer (``trout serve`` flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: max rows coalesced into one model call
    max_batch: int = 32
    #: how long the batch collector waits for more rows once one arrived;
    #: 0 dispatches whatever is already queued without waiting (batches
    #: still fill under load: requests queue while the worker computes)
    max_wait_ms: float = 0.0
    #: pending-request bound; submissions beyond it are shed (503)
    queue_depth: int = 128
    #: registry poll interval for hot reload
    reload_interval_s: float = 2.0
    #: Retry-After hint sent with shedding responses
    retry_after_s: int = 1
    #: server-side cap on a single request's end-to-end wait
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.reload_interval_s <= 0:
            raise ValueError("reload_interval_s must be positive")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1000.0
