"""Tests for the detection service coordinator.

The load-bearing property: the service's merged per-epoch verdicts
equal :class:`OptimizedCollusionDetector` run on the epoch's full
rating matrix, regardless of how the stream was sharded or batched.
"""

import time

import pytest

from repro.core.optimized import OptimizedCollusionDetector
from repro.errors import (BackpressureError, ServiceError, UnknownNodeError,
                          WorkerCrashError)
from repro.ratings.events import Rating
from repro.service import DetectionService, ServiceConfig

from tests.service.conftest import (
    SERVICE_THRESHOLDS,
    matrix_to_events,
    park_thread_worker,
    submit_all,
)


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 3, 5])
    def test_merged_verdicts_equal_batch_detector(self, planted_matrix, shards):
        events = matrix_to_events(planted_matrix)
        service = DetectionService(ServiceConfig(
            n=40, num_shards=shards, thresholds=SERVICE_THRESHOLDS,
        )).start()
        submit_all(service, events)
        result = service.end_period()
        service.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            planted_matrix)
        assert result.report.pair_set() == batch.pair_set()
        assert result.report.pair_set() == {(4, 5), (6, 7)}
        assert result.report.examined_nodes == batch.examined_nodes

    def test_planted_pairs_span_shards(self):
        """The standard fixture genuinely exercises the cross-shard join."""
        config = ServiceConfig(n=40, num_shards=3,
                               thresholds=SERVICE_THRESHOLDS)
        assert config.shard_of(4) != config.shard_of(5)
        assert config.shard_of(6) != config.shard_of(7)

    def test_equivalence_without_booster_exclusion(self, planted_matrix):
        events = matrix_to_events(planted_matrix)
        service = DetectionService(ServiceConfig(
            n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
            multi_booster_exclusion=False,
        )).start()
        submit_all(service, events)
        result = service.end_period()
        service.stop()
        batch = OptimizedCollusionDetector(
            SERVICE_THRESHOLDS, multi_booster_exclusion=False,
        ).detect(planted_matrix)
        assert result.report.pair_set() == batch.pair_set()

    def test_batching_does_not_change_verdicts(self, planted_matrix):
        events = matrix_to_events(planted_matrix)
        pair_sets = []
        for batch_size in (1, 7, len(events)):
            service = DetectionService(ServiceConfig(
                n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
            )).start()
            submit_all(service, events, batch_size=batch_size)
            pair_sets.append(service.end_period().report.pair_set())
            service.stop()
        assert pair_sets[0] == pair_sets[1] == pair_sets[2]


class TestIngestion:
    def test_submit_before_start_rejected(self, ephemeral_config):
        service = DetectionService(ephemeral_config)
        with pytest.raises(ServiceError, match="not running"):
            service.submit([Rating(1, 0, 1)])

    def test_empty_batch_is_a_noop(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        assert service.submit([]) == 0
        assert service.metrics.ops.get("ingest_batches") == 0
        service.stop()

    def test_non_rating_rejected(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        with pytest.raises(ServiceError, match="Rating"):
            service.submit([(1, 0, 1)])
        service.stop()

    def test_out_of_universe_ids_rejected(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        with pytest.raises(UnknownNodeError):
            service.submit([Rating(1, 40, 1)])
        service.stop()

    def test_submit_one_convenience(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        service.submit_one(3, 7, 1)
        assert service.epoch_events == 1
        service.stop()


class TestBackpressure:
    def _parked_service(self, tmp_path):
        """A durable 1-shard service whose worker thread is parked on a
        latch."""
        service = DetectionService(ServiceConfig(
            n=40, num_shards=1, thresholds=SERVICE_THRESHOLDS,
            queue_capacity=1, data_dir=tmp_path / "bp",
        )).start()
        release, token = park_thread_worker(service.workers[0])
        return service, release, token

    def test_rejected_batch_leaves_zero_state(self, tmp_path):
        service, release, token = self._parked_service(tmp_path)
        try:
            service.submit([Rating(1, 0, 1)])  # fills the only slot
            wal_path = tmp_path / "bp" / "shard-00" / "wal" / "wal-00000000.jsonl"
            lines_before = wal_path.read_text().count("\n")
            events_before = service.epoch_events
            with pytest.raises(BackpressureError, match="retry"):
                service.submit([Rating(2, 0, 1), Rating(3, 0, -1)])
            # all-or-nothing: no WAL write, no counters moved
            assert wal_path.read_text().count("\n") == lines_before
            assert service.epoch_events == events_before
            assert service.metrics.ops.get("ingest_rejected_batches") == 1
            assert service.metrics.ops.get("ingest_rejected_events") == 2
        finally:
            release.set()
            service.workers[0].finish_call(token)
        # the shard applied only the accepted event
        assert service.workers[0].call("status")["epoch_events"] == 1
        service.stop()

    def test_rejected_batch_is_retriable_verbatim(self, tmp_path):
        service, release, token = self._parked_service(tmp_path)
        batch = [Rating(2, 0, 1), Rating(3, 0, -1)]
        try:
            service.submit([Rating(1, 0, 1)])
            with pytest.raises(BackpressureError):
                service.submit(batch)
        finally:
            release.set()
            service.workers[0].finish_call(token)
        assert service.submit(batch) == 2  # same batch, now accepted
        service.stop()


class TestThreadShardFailures:
    """A thread shard cannot be killed: past ``worker_timeout_s`` it is
    down until its command returns, and nothing runs beside it."""

    def _service(self, tmp_path, shards=1):
        return DetectionService(ServiceConfig(
            n=40, num_shards=shards, thresholds=SERVICE_THRESHOLDS,
            data_dir=tmp_path / "d", worker_timeout_s=0.2,
        )).start()

    def test_timed_out_shard_takes_no_writes_until_it_returns(self, tmp_path):
        service = self._service(tmp_path)
        service.submit([Rating(1, 0, 1)])
        release, token = park_thread_worker(service.workers[0])
        try:
            with pytest.raises(WorkerCrashError, match="no reply"):
                service.workers[0].finish_call(token)
            assert not service.status()["workers"][0]["alive"]
            wal_path = tmp_path / "d" / "shard-00" / "wal" / "wal-00000000.jsonl"
            lines_before = wal_path.read_text().count("\n")
            with pytest.raises(WorkerCrashError, match="timed out"):
                service.submit([Rating(2, 0, 1)])
            assert wal_path.read_text().count("\n") == lines_before
            assert service.epoch_events == 1
        finally:
            release.set()
        assert token.done.wait(5)
        # back with its state intact: no restart was needed
        service.submit([Rating(2, 0, 1)])
        assert service.end_period().events == 2
        assert service.status()["workers"][0]["restarts"] == 0
        service.stop()

    def test_kill_and_restart_are_bounded_on_a_stuck_shard(self, tmp_path):
        service = self._service(tmp_path)
        worker = service.workers[0]
        release, _token = park_thread_worker(worker)
        try:
            started = time.monotonic()
            service.kill()
            assert time.monotonic() - started < 2
            with pytest.raises(WorkerCrashError, match="did not stop"):
                worker.restart(0)
        finally:
            release.set()
        # once the stuck command returns, the thread exits on its own
        assert worker.restart(0)["epoch"] == 0
        worker.stop()

    def test_wal_append_failure_is_a_shard_crash(self, tmp_path, monkeypatch):
        service = self._service(tmp_path, shards=2)

        def broken(batch):
            raise OSError("disk full")

        monkeypatch.setattr(service.workers[1].state, "log", broken)
        with pytest.raises(WorkerCrashError, match="WAL append failed"):
            # target 0 -> shard 0 (logged first), target 1 -> shard 1
            service.submit([Rating(1, 0, 1), Rating(2, 1, 1)])
        # at-least-once: shard 0's sub-batch stays accepted
        assert service.epoch_events == 1
        assert not service.status()["workers"][1]["alive"]
        # the next write restarts shard 1 from what its WAL holds
        service.submit([Rating(2, 1, 1)])
        assert service.status()["workers"][1]["restarts"] == 1
        assert service.epoch_events == 2
        assert service.epoch_wal_events() == [Rating(1, 0, 1), Rating(2, 1, 1)]
        service.stop()


class TestPeriods:
    def test_peek_is_non_destructive(self, planted_events, ephemeral_config,
                                     service_cls):
        service = service_cls(ephemeral_config).start()
        submit_all(service, planted_events)
        first = service.peek()
        second = service.peek()
        assert first.report.pair_set() == second.report.pair_set()
        assert service.epoch == 0  # nothing closed
        closed = service.end_period()
        assert closed.report.pair_set() == first.report.pair_set()
        service.stop()

    def test_epochs_are_independent(self, planted_events, ephemeral_config,
                                    service_cls):
        service = service_cls(ephemeral_config).start()
        submit_all(service, planted_events)
        first = service.end_period()
        assert first.report.pair_set() == {(4, 5), (6, 7)}
        # a quiet second epoch must not inherit the first one's evidence
        service.submit([Rating(1, 0, 1), Rating(2, 3, -1)])
        second = service.end_period()
        assert second.report.pair_set() == frozenset()
        assert second.epoch == 1
        assert [h["epoch"] for h in service.history()] == [0, 1]
        assert service.suspects()["epoch"] == 1
        service.stop()

    def test_published_reputation_is_cumulative(self, planted_events,
                                                ephemeral_config,
            service_cls):
        service = service_cls(ephemeral_config).start()
        half = len(planted_events) // 2
        submit_all(service, planted_events[:half])
        service.end_period()
        submit_all(service, planted_events[half:])
        service.end_period()
        for node in (0, 4, 17):
            expected = float(sum(e.value for e in planted_events
                                 if e.target == node))
            assert service.reputation_of(node) == expected
            assert service.reputation_of(node, live=True) == expected
        service.stop()

    def test_reputation_of_validates_node(self, ephemeral_config,
                                          service_cls):
        service = service_cls(ephemeral_config).start()
        with pytest.raises(UnknownNodeError):
            service.reputation_of(40)
        service.stop()

    def test_suspects_before_any_close(self, ephemeral_config,
                                       service_cls):
        service = service_cls(ephemeral_config).start()
        assert service.suspects()["epoch"] == -1
        service.stop()


class TestMetrics:
    def test_counters_after_one_epoch(self, planted_events, ephemeral_config,
                                      service_cls):
        service = service_cls(ephemeral_config).start()
        accepted = submit_all(service, planted_events, batch_size=50)
        service.end_period()
        ops = service.metrics.ops
        assert ops.get("ingest_events") == accepted == len(planted_events)
        assert ops.get("ingest_batches") == -(-accepted // 50)
        assert ops.get("periods_closed") == 1
        assert ops.get("detections") == 2
        assert service.metrics.ingest_latency.count() == ops.get("ingest_batches")
        assert service.metrics.end_period_latency.count() == 1
        detector_keys = [name for name, _ in service.metrics.ops
                         if name.startswith("detector:")]
        assert detector_keys  # shard op accounting merged in
        service.stop()

    def test_detector_ops_not_double_counted(self, ephemeral_config,
                                             service_cls):
        service = service_cls(ephemeral_config).start()
        service.submit([Rating(1, 0, 1)] * 8)
        service.end_period()
        after_first = service.metrics.ops.get("detector:observe")
        service.end_period()  # empty epoch: no new observes
        assert service.metrics.ops.get("detector:observe") == after_first
        service.stop()


class TestDurableBookkeeping:
    def test_snapshot_every_triggers_mid_epoch(self, tmp_path):
        service = DetectionService(ServiceConfig(
            n=40, num_shards=2, thresholds=SERVICE_THRESHOLDS,
            data_dir=tmp_path / "svc", snapshot_every=10,
        )).start()
        for i in range(25):
            service.submit_one(1 + (i % 5), 10 + (i % 7), 1)
        assert service.metrics.ops.get("snapshots") >= 2
        assert list((tmp_path / "svc").glob("shard-*/images/image-*.repm"))
        service.stop()

    def test_snapshot_requires_durable_mode(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        with pytest.raises(ServiceError, match="data_dir"):
            service.snapshot()
        service.stop()

    def test_wal_records_acknowledged_events(self, tmp_path, planted_events):
        service = DetectionService(ServiceConfig(
            n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
            data_dir=tmp_path / "svc",
        )).start()
        submit_all(service, planted_events)
        assert len(service.epoch_wal_events()) == len(planted_events)
        service.stop()


class TestStatus:
    def test_status_document(self, ephemeral_config):
        service = DetectionService(ephemeral_config).start()
        service.submit_one(1, 2, 1)
        status = service.status()
        assert status["status"] == "ok"
        assert status["epoch"] == 0
        assert status["epoch_events"] == 1
        assert status["shards"] == 3
        assert status["durable"] is False
        service.stop()
        assert service.status()["status"] == "stopped"
