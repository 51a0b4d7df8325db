"""Process-transport service tests.

The contract under test: :class:`ProcessDetectionService` is
observationally identical to the thread-transport
:class:`DetectionService` — same verdicts, same exported shard states,
same HTTP surface — while its workers are real processes that can be
SIGSTOPped, time out mid-fan-out and leave stale replies in the pipe.
Durability and crash recovery are shared code, tested on both
transports in ``test_recovery.py``.

Equivalence is property-tested against both the thread service and the
batch :class:`OptimizedCollusionDetector`, because the join proof in
``docs/SERVICE.md`` only holds if the process boundary changes
*nothing* about the math.
"""

import json
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.optimized import OptimizedCollusionDetector
from repro.errors import BackpressureError, WorkerCrashError
from repro.ratings.events import Rating
from repro.service import (DetectionService, ProcessDetectionService,
                           ServiceConfig, ServiceHTTPServer)

from tests.service.conftest import (
    SERVICE_THRESHOLDS,
    events_to_matrix,
    shard_states,
    submit_all,
)


def process_config(workers=3, **overrides):
    options = dict(n=40, num_shards=workers, thresholds=SERVICE_THRESHOLDS)
    options.update(overrides)
    return ServiceConfig(**options)


def process_states(service):
    """Canonical JSON of exported worker states (byte-comparable)."""
    return json.dumps(service.export_shard_states(), sort_keys=True)


# ---------------------------------------------------------------------------
# equivalence: N workers == thread service == batch detector
# ---------------------------------------------------------------------------

rating_events = st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 39),
              st.sampled_from([-1, 0, 1])),
    min_size=0, max_size=120,
).map(lambda raw: [Rating(r, t, v, time=float(i))
                   for i, (r, t, v) in enumerate(raw) if r != t])


class TestEquivalence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(events=rating_events, workers=st.sampled_from([2, 3]))
    def test_n_workers_equal_thread_service_and_batch(self, events, workers):
        process = ProcessDetectionService(
            process_config(workers=workers)).start()
        thread = DetectionService(process_config(workers=workers)).start()
        try:
            submit_all(process, events)
            submit_all(thread, events)
            assert process_states(process) == shard_states(thread)
            process_report = process.end_period().report
            thread_report = thread.end_period().report
        finally:
            process.stop()
            thread.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            events_to_matrix(events))
        assert process_report.pair_set() == thread_report.pair_set()
        assert process_report.pair_set() == batch.pair_set()
        assert process_report.examined_nodes == batch.examined_nodes

    def test_planted_pairs_detected(self, planted_events):
        service = ProcessDetectionService(process_config()).start()
        try:
            submit_all(service, planted_events)
            report = service.end_period().report
        finally:
            service.stop()
        assert report.pair_set() == {(4, 5), (6, 7)}


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP to park a worker deterministically")
class TestBackpressure:
    def _parked_service(self, queue_capacity=1):
        """A 1-worker service whose worker is suspended (not draining)."""
        service = ProcessDetectionService(process_config(
            workers=1, queue_capacity=queue_capacity)).start()
        os.kill(service.workers[0].pid, signal.SIGSTOP)
        return service

    def _release(self, service):
        os.kill(service.workers[0].pid, signal.SIGCONT)

    def test_full_queue_raises_and_batch_leaves_no_state(self):
        service = self._parked_service(queue_capacity=1)
        try:
            with pytest.raises(BackpressureError):
                # the parked worker drains nothing, so the bounded
                # queue fills after a handful of puts at most
                for _ in range(100):
                    service.submit([Rating(1, 0, 1)])
            accepted = service.epoch_events
            # the rejected batch left no state: only successfully
            # enqueued batches were counted
            assert service.metrics.ops.get("ingest_rejected_events") == 1
            assert service.metrics.ops.get("ingest_rejected_batches") == 1
            assert service.metrics.ops.get("ingest_events") == accepted
        finally:
            self._release(service)
            service.stop()

    def test_http_429_with_retry_after(self):
        service = self._parked_service(queue_capacity=1)
        http = ServiceHTTPServer(service, host="127.0.0.1", port=0).start()
        import urllib.error
        import urllib.request
        try:
            payload = json.dumps(
                {"ratings": [{"rater": 1, "target": 0, "value": 1}]}
            ).encode()

            def post():
                req = urllib.request.Request(
                    f"{http.url}/ratings", data=payload,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    with urllib.request.urlopen(req, timeout=10) as resp:
                        return resp.status, dict(resp.headers)
                except urllib.error.HTTPError as exc:
                    return exc.code, dict(exc.headers)

            status, _ = post()
            assert status == 202
            while True:
                status, headers = post()
                if status != 202:
                    break
            assert status == 429
            assert headers.get("Retry-After") == "1"
        finally:
            self._release(service)
            http.shutdown()
            service.stop()


# ---------------------------------------------------------------------------
# status / healthz surface
# ---------------------------------------------------------------------------

class TestStatusSurface:
    def test_status_reports_mode_and_workers(self, planted_events):
        service = ProcessDetectionService(process_config()).start()
        try:
            submit_all(service, planted_events)
            service.drain()
            status = service.status()
            assert status["mode"] == "process"
            workers = status["workers"]
            assert len(workers) == 3
            for entry in workers:
                assert entry["alive"] is True
                assert isinstance(entry["pid"], int)
                assert entry["restarts"] == 0
                assert entry["queue_depth"] is not None
            assert sum(w["epoch_events"] for w in workers) == \
                len(planted_events)
        finally:
            service.stop()

    def test_thread_service_reports_same_shape(self):
        service = DetectionService(process_config()).start()
        try:
            status = service.status()
            assert status["mode"] == "thread"
            assert len(status["workers"]) == 3
            for entry in status["workers"]:
                assert entry["alive"] is True
        finally:
            service.stop()

    def test_healthz_over_http(self):
        import urllib.request
        service = ProcessDetectionService(process_config(workers=2)).start()
        http = ServiceHTTPServer(service, host="127.0.0.1", port=0).start()
        try:
            with urllib.request.urlopen(f"{http.url}/healthz",
                                        timeout=10) as resp:
                doc = json.loads(resp.read())
            assert doc["mode"] == "process"
            assert [w["shard"] for w in doc["workers"]] == [0, 1]
        finally:
            http.shutdown()
            service.stop()


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP to park a worker deterministically")
class TestAbortedFanout:
    def test_stale_replies_from_aborted_fanout_drain_silently(
            self, planted_events):
        """A fan-out aborted by one unresponsive worker leaves the late
        replies in the pipe; they must drain silently instead of
        surfacing as protocol errors on the next interactions."""
        service = ProcessDetectionService(process_config(
            workers=2, worker_timeout_s=1.0)).start()
        try:
            submit_all(service, planted_events)
            service.drain()
            os.kill(service.workers[1].pid, signal.SIGSTOP)
            with pytest.raises(WorkerCrashError):
                service.peek()  # worker 1 times out mid-fan-out
            os.kill(service.workers[1].pid, signal.SIGCONT)
            # worker 1 now answers the aborted command late; subsequent
            # interactions must not trip over the stale reply
            service.submit([Rating(1, 0, 1), Rating(2, 1, 1)])
            peeked = service.peek()
            assert peeked.report.pair_set() == {(4, 5), (6, 7)}
        finally:
            service.stop()

    def test_partial_durable_submit_counts_acked_shards(self, tmp_path):
        """A durable multi-shard batch that crashes on one shard is
        at-least-once: surviving shards' acknowledged sub-batches are
        applied and must be counted, not silently dropped."""
        config = process_config(workers=2, data_dir=tmp_path / "svc",
                                worker_timeout_s=1.0)
        service = ProcessDetectionService(config).start()
        try:
            os.kill(service.workers[1].pid, signal.SIGSTOP)
            batch = [Rating(1, 0, 1), Rating(0, 2, 1),  # -> shard 0
                     Rating(3, 1, 1)]                    # -> shard 1
            with pytest.raises(WorkerCrashError):
                service.submit(batch)
            status = service.status()
            assert status["workers"][0]["epoch_events"] == 2
            assert status["workers"][1]["epoch_events"] == 0
            assert service.epoch_events == 2
        finally:
            os.kill(service.workers[1].pid, signal.SIGCONT)
            service.stop()


class TestPeriodCloseDegradation:
    def test_advance_is_idempotent_at_target_epoch(self):
        service = ProcessDetectionService(process_config()).start()
        try:
            service.end_period()  # workers now at epoch 1
            status = service.workers[0].call("advance", 1)
            assert status["epoch"] == 1
        finally:
            service.stop()

    def test_worker_crash_at_advance_still_returns_committed_result(
            self, tmp_path, planted_events):
        """A worker killed between the meta commit and the advance
        fan-out recovers to the committed epoch by itself; the close
        returns its (already published) result instead of an error an
        HTTP client would retry into a second, nearly-empty epoch."""
        config = process_config(data_dir=tmp_path / "svc")
        service = ProcessDetectionService(config).start()
        try:
            submit_all(service, planted_events)
            original = service._fanout_locked

            def sabotaged(name, *args):
                if name == "advance":
                    service._fanout_locked = original
                    service.workers[0].close()
                return original(name, *args)

            service._fanout_locked = sabotaged
            result = service.end_period()
            assert result.report.pair_set() == {(4, 5), (6, 7)}
            assert service.epoch == 1
            status = service.status()
            assert status["workers"][0]["alive"] is True
            assert status["workers"][0]["restarts"] == 1
            assert status["last_close_error"] is None
            # fully operational in the new epoch
            submit_all(service, planted_events)
            second = service.end_period()
        finally:
            service.stop()
        assert second.report.pair_set() == {(4, 5), (6, 7)}

    def test_advance_failure_after_commit_degrades_not_raises(
            self, tmp_path, planted_events):
        config = process_config(data_dir=tmp_path / "svc")
        service = ProcessDetectionService(config).start()
        try:
            submit_all(service, planted_events)
            original = service._fanout_locked

            def sabotaged(name, *args):
                if name == "advance":
                    service._fanout_locked = original
                    raise WorkerCrashError(0, "injected advance failure")
                return original(name, *args)

            service._fanout_locked = sabotaged
            result = service.end_period()  # must NOT raise: epoch committed
            assert result.report.pair_set() == {(4, 5), (6, 7)}
            assert service.epoch == 1
            assert "injected advance failure" in \
                service.status()["last_close_error"]
            assert service.metrics.ops.get("end_period_degraded") == 1
            # let the workers catch up so shutdown sees consistent state
            service._fanout_locked("advance", service.epoch)
        finally:
            service.stop()


class TestDrain:
    def test_drain_is_a_barrier(self, planted_events):
        service = ProcessDetectionService(process_config()).start()
        try:
            submit_all(service, planted_events)
            service.drain()
            status = service.status()
            assert sum(w["epoch_events"] for w in status["workers"]) == \
                len(planted_events)
        finally:
            service.stop()

    def test_peek_does_not_close_the_epoch(self, planted_events):
        service = ProcessDetectionService(process_config()).start()
        try:
            submit_all(service, planted_events)
            peeked = service.peek()
            assert peeked.report.pair_set() == {(4, 5), (6, 7)}
            assert service.epoch == 0
            closed = service.end_period()
        finally:
            service.stop()
        assert closed.report.pair_set() == peeked.report.pair_set()
