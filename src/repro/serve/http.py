"""Stdlib threaded HTTP front end for the prediction service.

One route table, three routes:

- ``POST /predict`` — JSON body in, hierarchical prediction out (the
  request rides the micro-batcher; overload answers 503 + Retry-After);
- ``GET /healthz`` — liveness + currently served model version;
- ``GET /metrics`` — the process-wide telemetry registry in Prometheus
  text format (:func:`repro.obs.export.to_prometheus`).

Every response carries an ``X-Request-Id`` header: a sanitised
client-supplied id is honoured, otherwise one is minted, and ``/predict``
echoes it in the JSON payload too.  Access logging is a structured
``serve.access`` event per request (the stock
``BaseHTTPRequestHandler.log_message`` stderr line is silenced — the
event stream is the single source, and it carries the request id).

``ThreadingHTTPServer`` gives a thread per connection; every worker
funnels into the single batcher, which is where the real concurrency
control lives.  Accepted connections run with ``TCP_NODELAY``, so a
keep-alive response never waits on the client's delayed ACK.
``start_server`` binds (port 0 = ephemeral, used by the
test suite), starts the accept loop in a daemon thread, and returns the
server object, whose ``shutdown_service`` tears down loop, watcher, and
batcher in order.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter

from repro.obs.context import clean_request_id, new_request_id
from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.serve.service import PredictionService, ServeResponse
from repro.utils.logging import get_logger

__all__ = ["TroutHTTPServer", "start_server"]

log = get_logger(__name__)

#: request bodies above this are rejected outright (64 KiB is ~500 rows
#: of named features; real requests are a few hundred bytes)
MAX_BODY_BYTES = 64 * 1024


class TroutHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: PredictionService):
        super().__init__(address, _Handler)
        self.service = service
        self._loop: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        self._loop = threading.Thread(
            target=self.serve_forever,
            name="trout-serve-http",
            daemon=True,
        )
        self._loop.start()

    def shutdown_service(self) -> None:
        """Stop accepting, then stop the watcher and batcher."""
        self.shutdown()
        self.server_close()
        if self._loop is not None:
            self._loop.join(timeout=5.0)
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection.  A response goes out as
    #: two writes (headers, then body); with Nagle on, the body waits for
    #: the client's delayed ACK of the headers, about 40 ms on keep-alive.
    disable_nagle_algorithm = True
    server: TroutHTTPServer

    # ------------------------------------------------------------------ #
    def _request_id(self) -> str:
        """Honour a sane client-sent ``X-Request-Id``, else mint one."""
        return clean_request_id(self.headers.get("X-Request-Id")) or new_request_id()

    def _send(self, route: str, resp: ServeResponse, request_id: str) -> None:
        body = json.dumps(resp.payload, sort_keys=True).encode("utf-8")
        # Count before writing: a client that has read this response must
        # see it reflected in an immediately following /metrics scrape.
        self._status = resp.status
        get_registry().counter(
            "serve_requests_total",
            help="HTTP requests served, by route and status code",
            labels={"route": route, "code": str(resp.status)},
        ).inc()
        self.send_response(resp.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        for key, value in resp.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, route: str, status: int, text: str, request_id: str
    ) -> None:
        body = text.encode("utf-8")
        self._status = status
        get_registry().counter(
            "serve_requests_total",
            help="HTTP requests served, by route and status code",
            labels={"route": route, "code": str(status)},
        ).inc()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def _finish(self, method: str, route: str, rid: str, t0: float) -> None:
        seconds = perf_counter() - t0
        get_registry().histogram(
            "serve_request_seconds",
            help="end-to-end request handling time",
            buckets=(0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
        ).observe(seconds)
        emit(
            "serve.access",
            level="debug",
            request_id=rid,
            method=method,
            route=route,
            status=getattr(self, "_status", 0),
            duration_s=round(seconds, 6),
        )

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        t0 = perf_counter()
        rid = self._request_id()
        try:
            if self.path == "/healthz":
                self._send("/healthz", self.server.service.handle_healthz(), rid)
            elif self.path == "/metrics":
                from repro.obs.export import to_prometheus

                self._send_text("/metrics", 200, to_prometheus(), rid)
            else:
                self._send(
                    self.path,
                    ServeResponse(404, {"error": f"no route {self.path!r}"}),
                    rid,
                )
        finally:
            self._finish("GET", self.path, rid, t0)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        t0 = perf_counter()
        rid = self._request_id()
        try:
            if self.path != "/predict":
                self._send(
                    self.path,
                    ServeResponse(404, {"error": f"no route {self.path!r}"}),
                    rid,
                )
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                self._send(
                    "/predict",
                    ServeResponse(400, {"error": "bad Content-Length"}),
                    rid,
                )
                return
            body = self.rfile.read(length)
            self._send(
                "/predict",
                self.server.service.handle_predict(body, request_id=rid),
                rid,
            )
        finally:
            self._finish("POST", self.path, rid, t0)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the stock stderr access line — the structured
        ``serve.access`` event (with request id) is the single source."""

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        emit(
            "serve.http_error",
            level="warning",
            client=self.address_string(),
            message=format % args,
        )


def start_server(
    service: PredictionService, host: str = "127.0.0.1", port: int = 0
) -> TroutHTTPServer:
    """Bind, start the accept loop in the background, return the server."""
    server = TroutHTTPServer((host, port), service)
    server.start_background()
    log.info("trout serve listening on %s:%d", host, server.port)
    return server
