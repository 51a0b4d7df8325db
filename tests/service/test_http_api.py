"""Tests for the HTTP query API (real sockets on an ephemeral port)."""

import json
import urllib.error
import urllib.request

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

    @pytest.mark.parametrize("record", [
        {"rater": 1, "target": 1, "value": 1},     # self-rating
        {"rater": 1, "target": 0, "value": 5},     # bad value
        {"rater": 1, "target": 99, "value": 1},    # outside universe
        {"rater": 1, "value": 1},                  # missing field
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
        assert list(service.config.data_dir.glob("shard-*/snapshots/*.json"))

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
