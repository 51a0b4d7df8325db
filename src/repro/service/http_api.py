"""Stdlib HTTP query API for the detection service.

A thin JSON adapter over :class:`repro.service.DetectionService`
(either shard transport).  No framework, no new dependencies, just
``http.server`` with a threading mixin so queries are served while
ratings stream in.

Endpoints
---------
``GET /healthz``
    Liveness + epoch/queue status, with a ``workers`` block (pid,
    liveness, queue depth, restarts per shard worker).
``GET /metrics``
    Ingest/detection counters and latency histograms (JSON).
``GET /reputation/{node}``
    Published cumulative reputation (``?live=1`` reads the owning
    shard's current accumulator).
``GET /suspects``
    Latest epoch's published verdict set (``?history=1`` for all
    epochs closed by this process).
``GET /collusion-graph``
    The open epoch's live suspect graph and ring-detection verdicts
    (``?floor=0.5`` tunes the candidate-edge admission fraction of
    ``T_N``); read-only, the epoch keeps accumulating.
``POST /ratings``
    Ingest a batch: ``{"ratings": [{"rater", "target", "value",
    "time"?}, ...]}`` (or one bare rating object).  ``202`` with the
    accepted count; ``429`` + ``Retry-After`` under backpressure (the
    batch left no state — retry it verbatim after backing off);
    ``400`` on validation errors; ``503`` when the service is not
    running or a shard worker crashed mid-request.  Unlike 429, a
    worker-crash 503 is **not** safely retryable verbatim: sub-batches
    acknowledged by surviving shards are already durably applied, so a
    blind retry double-counts them (the response body says so).
``POST /admin/end-period``
    Close the epoch and return its verdicts.
``POST /admin/snapshot``
    Force a consistent snapshot (durable mode only).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    RatingError,
    ReproError,
    ServiceError,
    TraceError,
    UnknownNodeError,
    WorkerCrashError,
)
from repro.ratings.io import decode_jsonl
from repro.service.coordinator import DetectionService

__all__ = ["ServiceHTTPServer"]

# ASCII digits only, and few enough that int() stays clear of the
# interpreter's digit limit; any other node id falls through to the 404.
_REPUTATION_RE = re.compile(r"^/reputation/([0-9]{1,18})$")
_MAX_BODY = 8 * 1024 * 1024  # 8 MiB request cap — bound memory per request
_WRITE_BUFFER = 64 * 1024  # responses up to this size leave in one send


class _Server(ThreadingHTTPServer):
    """The listening socket, carrying the service for request handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: DetectionService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    """One request; the service lives on the server object."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # One send per response: a response split over two sends waits, after
    # the first, on Nagle until the client's delayed ACK (up to 40 ms on
    # Linux).  The stdlib sets TCP_NODELAY on each accepted socket, and
    # handle_one_request flushes the buffered wfile once per request, so
    # a response of up to _WRITE_BUFFER bytes leaves in one write.
    disable_nagle_algorithm = True
    wbufsize = _WRITE_BUFFER

    @property
    def service(self) -> DetectionService:
        assert isinstance(self.server, _Server)
        return self.server.service

    # -- plumbing ------------------------------------------------------
    def log_message(self, *_args: object) -> None:  # quiet by default
        pass

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client now, not with the
        # buffered final response: the client waits for it to send the body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(status, {"error": message}, headers)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        # The stdlib's own errors (unsupported method, malformed request
        # line, oversized headers) answer in JSON like every other error
        # and, as the stdlib's do, close the connection.
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        if self.request_version == "HTTP/0.9":
            # The stdlib leaves its HTTP/0.9 default in place until the
            # version parses, and an HTTP/0.9 answer has no status line
            # or headers; the error still needs both to be read as one.
            self.request_version = self.protocol_version
        self._error(code, message, {"Connection": "close"})

    def _read_body(self) -> Optional[bytes]:
        # A rejected body is left unread, so the connection cannot carry
        # another request: the error response closes it.
        close = {"Connection": "close"}
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._error(400, f"Content-Length must be a non-negative "
                             f"integer, got {raw!r}", close)
            return None
        length = int(raw)
        if length > _MAX_BODY:
            self._error(413, f"request body exceeds {_MAX_BODY} bytes", close)
            return None
        return self.rfile.read(length)

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        path = parsed.path
        try:
            if path == "/healthz":
                self._send_json(200, self.service.status())
            elif path == "/metrics":
                self._send_json(200, self.service.metrics.to_dict())
            elif path == "/suspects":
                if query.get("history", ["0"])[0] in ("1", "true"):
                    self._send_json(200, {"epochs": self.service.history()})
                else:
                    self._send_json(200, self.service.suspects())
            elif path == "/collusion-graph":
                raw_floor = query.get("floor", ["0.5"])[0]
                try:
                    floor = float(raw_floor)
                except ValueError:
                    return self._error(
                        400, f"floor must be a number, got {raw_floor!r}"
                    )
                self._send_json(
                    200, self.service.collusion_graph(edge_floor=floor)
                )
            else:
                match = _REPUTATION_RE.match(path)
                if match:
                    node = int(match.group(1))
                    live = query.get("live", ["0"])[0] in ("1", "true")
                    value = self.service.reputation_of(node, live=live)
                    self._send_json(
                        200,
                        {"node": node, "reputation": value,
                         "epoch": self.service.epoch, "live": live},
                    )
                else:
                    self._error(404, f"no such resource: {path}")
        except UnknownNodeError as exc:
            self._error(404, str(exc))
        except ConfigurationError as exc:
            self._error(400, str(exc))
        except ReproError as exc:
            self._error(500, str(exc))

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path = urlparse(self.path).path
        if path == "/ratings":
            self._post_ratings()
        elif path == "/admin/end-period":
            self._post_end_period()
        elif path == "/admin/snapshot":
            self._post_snapshot()
        else:
            self._error(404, f"no such resource: {path}")

    def _post_ratings(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body or b"{}")
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, undecodable UTF-8 or an integer
            # past the digit limit; RecursionError: nesting deeper than
            # the parser's stack.
            return self._error(400, f"invalid JSON body: {exc}")
        if isinstance(document, dict) and "ratings" in document:
            records = document["ratings"]
        elif isinstance(document, dict):
            records = [document]
        else:
            records = document
        if not isinstance(records, list):
            return self._error(400, "body must be a rating object or "
                                    "{'ratings': [...]}")
        try:
            batch = [
                decode_jsonl(json.dumps(record), n=self.service.config.n,
                             where=f"ratings[{index}]")
                for index, record in enumerate(records)
            ]
        except TraceError as exc:
            return self._error(400, str(exc))
        try:
            accepted = self.service.submit(batch)
        except BackpressureError as exc:
            # 429 Too Many Requests: the batch left zero state, so the
            # client can retry it verbatim after Retry-After seconds.
            return self._error(429, str(exc), headers={"Retry-After": "1"})
        except (RatingError, UnknownNodeError) as exc:
            return self._error(400, str(exc))
        except WorkerCrashError as exc:
            # 503, but NOT verbatim-retryable like a 429: sub-batches
            # acknowledged by surviving shards are already applied, so a
            # blind retry would double-count them (at-least-once).
            return self._error(
                503,
                f"{exc} — batch partially applied; do not retry verbatim "
                f"(surviving shards already recorded their sub-batches)",
            )
        except ServiceError as exc:
            return self._error(503, str(exc))
        self._send_json(202, {"accepted": accepted,
                              "epoch": self.service.epoch})

    def _post_end_period(self) -> None:
        try:
            result = self.service.end_period()
        except ReproError as exc:
            return self._error(500, str(exc))
        self._send_json(200, result.to_dict())

    def _post_snapshot(self) -> None:
        try:
            self.service.snapshot()
        except ServiceError as exc:
            return self._error(409, str(exc))
        self._send_json(200, {"snapshotted": True,
                              "epoch": self.service.epoch})


class ServiceHTTPServer:
    """Owns the listening socket and its serving thread.

    ``port=0`` binds an ephemeral port; read :attr:`address` for the
    actual one.  ``serve_forever`` runs on a daemon thread so the
    caller (CLI, tests, examples) keeps control.
    """

    def __init__(self, service: DetectionService,
                 host: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        self.service = service
        bind_host = host if host is not None else service.config.host
        bind_port = port if port is not None else service.config.port
        self._server = _Server((bind_host, bind_port), service)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        bound_host, bound_port = self._server.server_address[:2]
        return str(bound_host), int(bound_port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHTTPServer":
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-service-http", daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI's foreground mode)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
