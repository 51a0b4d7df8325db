"""Tests for the HTTP query API (real sockets on an ephemeral port)."""

import json
import socket
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.ratings.events import Rating
from repro.service import DetectionService, ServiceConfig, ServiceHTTPServer

from tests.service.conftest import (SERVICE_THRESHOLDS, park_thread_worker,
                                    submit_all)


def request(url, payload=None, method=None):
    """(status, json_document, headers) for one HTTP exchange."""
    data = None if payload is None else json.dumps(payload).encode()
    if method is None:
        method = "GET" if data is None else "POST"
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read() or b"{}"), \
                dict(response.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, json.loads(body or b"{}"), dict(exc.headers)


def read_response(sock):
    """``(status, headers, body)`` of one response read off ``sock``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "connection closed with no response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    while len(body) < int(headers["Content-Length"]):
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def raw_post(url, body, content_length=None):
    """``(status, document)`` of a hand-framed ``POST /ratings``.

    urllib always frames requests correctly, and ``json.dumps`` cannot
    write every malformed document, so these go over a raw socket.  A
    server that hangs or drops the connection fails the call instead of
    returning a status.  ``content_length`` defaults to the body's.
    """
    if content_length is None:
        content_length = str(len(body)).encode()
    address = urlparse(url)
    with socket.create_connection((address.hostname, address.port),
                                  timeout=5) as sock:
        sock.sendall(b"POST /ratings HTTP/1.1\r\nHost: test\r\n"
                     b"Content-Length: " + content_length + b"\r\n\r\n"
                     + body)
        status, _headers, payload = read_response(sock)
    return status, json.loads(payload)


@pytest.fixture
def served(tmp_path):
    """A running durable service + HTTP server; yields (service, url)."""
    service = DetectionService(ServiceConfig(
        n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
        data_dir=tmp_path / "svc", port=0,
    )).start()
    http = ServiceHTTPServer(service).start()
    yield service, http.url
    http.shutdown()
    service.stop()


@pytest.fixture
def server_writes(served, monkeypatch):
    """Each write the served HTTP server makes: ``(nodelay, bytes)``.

    A stream handler writes through ``socket.send`` (buffered wfile) or
    ``socket.sendall`` (unbuffered); both are recorded.  The client's
    writes come from an ephemeral local port, so only writes from the
    server's port are kept.
    """
    port = urlparse(served[1]).port
    writes = []

    def recording(original):
        def write(sock, data, *args):
            if (sock.family in (socket.AF_INET, socket.AF_INET6)
                    and sock.getsockname()[1] == port):
                nodelay = sock.getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)
                writes.append((nodelay, bytes(data)))
            return original(sock, data, *args)
        return write

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name,
                            recording(getattr(socket.socket, name)))
    return writes


class TestQueries:
    def test_healthz(self, served):
        _service, url = served
        status, doc, _ = request(f"{url}/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["durable"] is True

    def test_metrics_nonzero_after_traffic(self, served):
        service, url = served
        service.submit([Rating(1, 0, 1), Rating(2, 0, 1)])
        status, doc, _ = request(f"{url}/metrics")
        assert status == 200
        assert doc["counters"]["ingest_events"] == 2
        assert doc["histograms"]["ingest"]["count"] == 1

    def test_reputation_published_and_live(self, served, planted_events):
        service, url = served
        submit_all(service, planted_events)
        expected = float(sum(e.value for e in planted_events
                             if e.target == 4))
        status, doc, _ = request(f"{url}/reputation/4?live=1")
        assert (status, doc["reputation"]) == (200, expected)
        status, doc, _ = request(f"{url}/reputation/4")
        assert (status, doc["reputation"]) == (200, 0.0)  # not published yet
        service.end_period()
        status, doc, _ = request(f"{url}/reputation/4")
        assert (status, doc["reputation"]) == (200, expected)

    def test_reputation_unknown_node_404(self, served):
        _service, url = served
        status, doc, _ = request(f"{url}/reputation/40")
        assert status == 404
        assert "40" in doc["error"]

    def test_unknown_path_404(self, served):
        _service, url = served
        assert request(f"{url}/nope")[0] == 404
        assert request(f"{url}/nope", payload={})[0] == 404

    @pytest.mark.parametrize("node", [
        "1" * 5000,         # past int()'s digit limit
        "1" * 19,           # more digits than any node id needs
    ], ids=["5000-digits", "19-digits"])
    def test_malformed_node_id_404(self, served, node):
        _service, url = served
        status, doc, _ = request(f"{url}/reputation/{node}")
        assert status == 404
        assert doc["error"].startswith("no such resource")

    def test_suspects_and_history(self, served, planted_events):
        service, url = served
        submit_all(service, planted_events)
        service.end_period()
        status, doc, _ = request(f"{url}/suspects")
        assert status == 200
        assert doc["pairs"] == [[4, 5], [6, 7]]
        status, doc, _ = request(f"{url}/suspects?history=1")
        assert status == 200
        assert [e["epoch"] for e in doc["epochs"]] == [0]

    def test_collusion_graph_live(self, served, planted_events):
        service, url = served
        submit_all(service, planted_events)
        status, doc, _ = request(f"{url}/collusion-graph")
        assert status == 200
        assert doc["schema_version"] == 1
        assert doc["pairs"] == [[4, 5], [6, 7]]
        assert [g["kind"] for g in doc["groups"]] == ["pair", "pair"]
        assert doc["graph"]["mutual_pairs"] == [[4, 5], [6, 7]]

    def test_collusion_graph_empty_epoch(self, served):
        _service, url = served
        status, doc, _ = request(f"{url}/collusion-graph")
        assert status == 200
        assert doc["pairs"] == []
        assert doc["groups"] == []

    def test_collusion_graph_floor_parameter(self, served, planted_events):
        service, url = served
        submit_all(service, planted_events)
        status, doc, _ = request(f"{url}/collusion-graph?floor=1.0")
        assert status == 200
        assert doc["graph"]["edge_floor"] == 1.0

    @pytest.mark.parametrize("floor", ["abc", "1..5"])
    def test_collusion_graph_malformed_floor_400(self, served, floor):
        _service, url = served
        status, doc, _ = request(f"{url}/collusion-graph?floor={floor}")
        assert status == 400
        assert "floor" in doc["error"]

    def test_collusion_graph_out_of_range_floor_400(self, served):
        _service, url = served
        status, doc, _ = request(f"{url}/collusion-graph?floor=1.5")
        assert status == 400


class TestIngestEndpoint:
    def test_batch_accepted_202(self, served):
        _service, url = served
        status, doc, _ = request(f"{url}/ratings", payload={
            "ratings": [{"rater": 1, "target": 0, "value": 1},
                        {"rater": 2, "target": 0, "value": -1}],
        })
        assert status == 202
        assert doc == {"accepted": 2, "epoch": 0}

    def test_bare_rating_object_accepted(self, served):
        service, url = served
        status, _doc, _ = request(f"{url}/ratings", payload={
            "rater": 5, "target": 6, "value": 1})
        assert status == 202
        assert service.epoch_events == 1

    def test_invalid_json_400(self, served):
        _service, url = served
        req = urllib.request.Request(f"{url}/ratings", data=b"{nope",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_invalid_utf8_body_400(self, served):
        _service, url = served
        assert raw_post(url, b"\xff\xfe{", b"3")[0] == 400

    def test_non_integer_content_length_400(self, served):
        _service, url = served
        assert raw_post(url, b"{}", b"abc")[0] == 400

    def test_negative_content_length_400(self, served):
        _service, url = served
        assert raw_post(url, b"{}", b"-1")[0] == 400

    @pytest.mark.parametrize("body, named", [
        (b"[" * 100_000, "invalid JSON"),
        (b'{"rater": 3, "target": 2, "value": 1e400}', "value"),
        (b'{"rater": 3, "target": 2, "value": 1, "time": 1'
         + b"0" * 400 + b"}", "too large"),
        (b'{"rater": ' + b"1" * 5000 + b', "target": 2, "value": 1}',
         "invalid JSON"),
    ] + [
        (b'{"rater": 3, "target": 2, "value": 1, "time": ' + time + b"}",
         "ratings[0]: time")
        for time in (b"NaN", b"-Infinity", b"1e400", b"true", b'"7"')
    ], ids=["deep-nesting", "inf-value", "time-overflow", "digit-limit",
            "nan-time", "neg-infinity-time", "inf-time", "boolean-time",
            "string-time"])
    def test_unrepresentable_body_400(self, served, body, named):
        service, url = served
        status, doc = raw_post(url, body)
        assert status == 400
        assert named in doc["error"]
        assert service.epoch_events == 0

    def test_integral_float_ids_accepted(self, served):
        service, url = served
        status, _doc, _ = request(f"{url}/ratings", payload={
            "rater": 3.0, "target": 2, "value": -1.0})
        assert status == 202
        assert service.epoch_events == 1

    @pytest.mark.parametrize("record", [
        {"rater": 1, "target": 1, "value": 1},     # self-rating
        {"rater": 1, "target": 0, "value": 5},     # bad value
        {"rater": 1, "target": 99, "value": 1},    # outside universe
        {"rater": 1, "value": 1},                  # missing field
        {"rater": 1.9, "target": 2, "value": 1},   # fractional id
        {"rater": True, "target": 2, "value": 1},
        {"rater": 1, "target": 2.5, "value": 1},
        {"rater": 1, "target": False, "value": 1},
        {"rater": 1, "target": 2, "value": 0.5},   # fractional value
        {"rater": 1, "target": 2, "value": True},
    ])
    def test_invalid_rating_400(self, served, record):
        _service, url = served
        status, doc, _ = request(f"{url}/ratings",
                                 payload={"ratings": [record]})
        assert status == 400
        assert "error" in doc

    def test_non_list_body_400(self, served):
        _service, url = served
        status, _doc, _ = request(f"{url}/ratings", payload="nope")
        assert status == 400

    def test_backpressure_429_with_retry_after(self, tmp_path):
        service = DetectionService(ServiceConfig(
            n=40, num_shards=1, thresholds=SERVICE_THRESHOLDS,
            queue_capacity=1, port=0,
        )).start()
        http = ServiceHTTPServer(service).start()
        release, token = park_thread_worker(service.workers[0])
        try:
            payload = {"ratings": [{"rater": 1, "target": 0, "value": 1}]}
            assert request(f"{http.url}/ratings", payload=payload)[0] == 202
            status, doc, headers = request(f"{http.url}/ratings",
                                           payload=payload)
            assert status == 429
            assert "backoff" in doc["error"] or "retry" in doc["error"]
            assert headers.get("Retry-After") == "1"
        finally:
            release.set()
            service.workers[0].finish_call(token)
            http.shutdown()
            service.stop()


class TestResponseFraming:
    """Each response leaves in one write on a TCP_NODELAY socket.

    Sent as two writes, the body waited on Nagle for the client's
    delayed ACK of the headers; these tests read no clock.
    """

    @pytest.mark.parametrize("path, payload, status", [
        ("/ratings", {"rater": 1, "target": 0, "value": 1}, 202),
        ("/healthz", None, 200),
        ("/ratings", {"rater": 1, "target": 1, "value": 1}, 400),
    ], ids=["accepted-202", "healthz-200", "self-rating-400"])
    def test_response_is_one_write(self, served, server_writes, path,
                                   payload, status):
        _service, url = served
        got, doc, _ = request(url + path, payload)
        assert got == status
        assert len(server_writes) == 1
        _nodelay, data = server_writes[0]
        assert data.startswith(b"HTTP/1.1 %d " % status)
        assert data.endswith(b"\r\n\r\n" + json.dumps(doc).encode())

    def test_accepted_socket_has_nodelay(self, served, server_writes):
        _service, url = served
        assert request(f"{url}/healthz")[0] == 200
        assert server_writes
        assert all(nodelay for nodelay, _data in server_writes)

    def test_framing_error_is_one_write_then_closes(self, served,
                                                    server_writes):
        _service, url = served
        address = urlparse(url)
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /ratings HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: abc\r\n\r\n{}")
            status, headers, _body = read_response(sock)
            assert (status, headers["Connection"]) == (400, "close")
            assert sock.recv(4096) == b""
        assert len(server_writes) == 1

    def test_expect_100_continue_sent_before_body(self, served):
        # The buffered wfile must not hold the interim 100 back: the
        # client sends the body only after it arrives.
        service, url = served
        body = b'{"rater": 1, "target": 0, "value": 1}'
        address = urlparse(url)
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /ratings HTTP/1.1\r\nHost: test\r\n"
                         b"Expect: 100-continue\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            assert read_response(sock)[0] == 202
        assert service.epoch_events == 1


class TestStdlibErrors:
    """Errors the stdlib raises before any handler runs are JSON too."""

    @staticmethod
    def exchange(url, raw_request):
        """The status line and body of the response to ``raw_request``,
        read to close; the response must carry a status line and the
        JSON and close headers, whatever the request line held."""
        address = urlparse(url)
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5) as sock:
            sock.sendall(raw_request)
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status_line, *header_lines = head.split(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 "), data
        assert b"Content-Type: application/json" in header_lines
        assert b"Connection: close" in header_lines
        return status_line, body

    @pytest.mark.parametrize("raw_request, status, named", [
        (b"PUT /ratings HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 0\r\n\r\n", 501, "PUT"),
        (b"GET / HTTP/9.9\r\nHost: test\r\n\r\n", 505, "9.9"),
        (b"GET / \"quoted\"\r\n\r\n", 400, '"quoted"'),
    ], ids=["unsupported-method", "http-version", "malformed-line"])
    def test_error_body_is_json(self, served, raw_request, status, named):
        _service, url = served
        status_line, body = self.exchange(url, raw_request)
        assert status_line.split()[1] == str(status).encode()
        assert named in json.loads(body)["error"]

    def test_head_error_has_no_body(self, served):
        _service, url = served
        _status_line, body = self.exchange(url, b"HEAD /healthz HTTP/1.1\r\n"
                                                b"Host: test\r\n\r\n")
        assert body == b""

    def test_unsupported_method_is_501_json(self, served):
        _service, url = served
        status, doc, headers = request(f"{url}/ratings", payload={},
                                       method="PUT")
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert "PUT" in doc["error"]


class TestAdminEndpoints:
    def test_end_period_returns_verdicts(self, served, planted_events):
        service, url = served
        submit_all(service, planted_events)
        status, doc, _ = request(f"{url}/admin/end-period", payload={})
        assert status == 200
        assert doc["epoch"] == 0
        assert doc["pairs"] == [[4, 5], [6, 7]]
        assert service.epoch == 1

    def test_snapshot_durable_200(self, served):
        service, url = served
        status, doc, _ = request(f"{url}/admin/snapshot", payload={})
        assert status == 200
        assert doc["snapshotted"] is True
        assert list(service.config.data_dir.glob("shard-*/images/image-*.repm"))

    def test_snapshot_ephemeral_409(self):
        service = DetectionService(ServiceConfig(
            n=40, num_shards=2, thresholds=SERVICE_THRESHOLDS, port=0,
        )).start()
        http = ServiceHTTPServer(service).start()
        try:
            assert request(f"{http.url}/admin/snapshot", payload={})[0] == 409
        finally:
            http.shutdown()
            service.stop()
