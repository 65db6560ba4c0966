"""The default serve path runs at its latency floor.

Two defaults keep a lone request from waiting on anything but the model:
``TCP_NODELAY`` on every accepted connection (a response is two writes,
and with Nagle on the body waits out the client's delayed ACK), and a
zero coalescing window (dispatch what is already queued).  Both are
checked through the socket option and the configured defaults, never
through timings.
"""

from __future__ import annotations

import inspect
import socket

from repro.cli.main import build_parser
from repro.serve import MicroBatcher, ServeConfig
from repro.serve import http as serve_http

from tests.serve.conftest import as_loaded, golden_model


def test_accepted_connections_set_tcp_nodelay(serve_harness, monkeypatch):
    seen: list[int] = []
    setup = serve_http._Handler.setup

    def recording_setup(handler) -> None:
        setup(handler)
        seen.append(
            handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        )

    monkeypatch.setattr(serve_http._Handler, "setup", recording_setup)
    harness = serve_harness(as_loaded(golden_model()), ServeConfig())
    status, _headers, _body = harness.request("GET", "/healthz")
    assert status == 200
    assert len(seen) == 1
    assert seen[0] != 0


def test_default_window_is_zero_and_flags_match_serve_config():
    """The window is 0 in ``ServeConfig``, ``MicroBatcher`` and the
    ``trout serve`` parser, whose flags map 1:1 onto the config."""
    config = ServeConfig()
    assert config.max_wait_ms == 0
    default = inspect.signature(MicroBatcher).parameters["max_wait_s"].default
    assert default == config.max_wait_s
    args = build_parser().parse_args(["serve", "--model-dir", "registry"])
    assert args.max_wait_ms == config.max_wait_ms
    assert (args.host, args.port) == (config.host, config.port)
    assert args.max_batch == config.max_batch
    assert args.queue_depth == config.queue_depth
    assert args.reload_interval == config.reload_interval_s
