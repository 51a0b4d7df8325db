"""Tests for the in-thread shard transport and the shard state it runs."""

import json
import shutil
import threading

import pytest

from repro.errors import (BackpressureError, RecoveryError, ServiceError,
                          WorkerCrashError)
from repro.ratings.events import Rating
from repro.service import ServiceConfig
from repro.service.shard import ShardWorker

from tests.service.conftest import SERVICE_THRESHOLDS


def make_worker(queue_capacity=4, n=40, shard_id=0):
    config = ServiceConfig(
        n=n, num_shards=2, thresholds=SERVICE_THRESHOLDS,
        queue_capacity=queue_capacity,
    )
    return ShardWorker(shard_id, config)


class TestLifecycle:
    def test_start_stop_idempotent(self):
        worker = make_worker()
        worker.start()
        worker.start()
        assert worker.alive
        worker.stop()
        worker.stop()
        assert not worker.alive

    def test_stop_drains_queued_batches(self):
        worker = make_worker()
        worker.start()
        worker.enqueue([Rating(1, 0, 1)])
        worker.enqueue([Rating(3, 2, 1)])
        worker.stop()
        assert worker.detector.events_this_period == 2


class TestDataPlane:
    def test_backpressure_when_full(self):
        worker = make_worker(queue_capacity=2)
        # not started: nothing consumes the queue
        worker.enqueue([Rating(1, 0, 1)])
        worker.enqueue([Rating(1, 0, 1)])
        assert not worker.has_capacity()
        with pytest.raises(BackpressureError, match="shard 0"):
            worker.enqueue([Rating(1, 0, 1)])

    def test_apply_updates_detector_and_cumulative(self):
        worker = make_worker()
        worker.apply([Rating(1, 0, 1), Rating(3, 0, -1), Rating(5, 0, 1)])
        assert worker.detector.events_this_period == 3
        assert worker.state.cumulative.reputation_of(0) == 1.0

    def test_call_is_a_barrier_behind_batches(self):
        worker = make_worker(queue_capacity=64)
        worker.start()
        for _ in range(20):
            worker.enqueue([Rating(1, 0, 1)])
        assert worker.call("status")["epoch_events"] == 20
        worker.stop()

    def test_call_on_a_stopped_worker_raises(self):
        worker = make_worker()
        with pytest.raises(WorkerCrashError, match="not running"):
            worker.call("barrier")

    def test_call_propagates_exceptions(self):
        worker = make_worker()
        worker.start()
        with pytest.raises(ServiceError, match="consecutive"):
            worker.call("advance", 5)
        # the worker survives a failed command
        assert worker.alive
        worker.call("barrier")
        worker.stop()


class TestWorkerFailure:
    def test_bad_batch_kills_the_worker_until_restart(self):
        worker = make_worker()
        worker.start()
        worker.queue.put(["not a rating"])  # bypass enqueue validation
        deadline = threading.Event()
        deadline.wait(0.01)
        for _ in range(100):
            if not worker.alive:
                break
            deadline.wait(0.01)
        assert not worker.alive
        with pytest.raises(WorkerCrashError, match="not running"):
            worker.call("barrier")
        # an ephemeral restart comes back empty and serving
        assert worker.restart(0)["epoch_events"] == 0
        worker.enqueue([Rating(1, 0, 1)])
        assert worker.call("status")["epoch_events"] == 1
        worker.stop()


class TestDurability:
    """A durable shard's state survives as a state image alone."""

    def durable_worker(self, data_dir, shard_id=0):
        config = ServiceConfig(n=40, num_shards=2,
                               thresholds=SERVICE_THRESHOLDS,
                               data_dir=data_dir)
        return ShardWorker(shard_id, config)

    def snapshotted_worker(self, data_dir):
        worker = self.durable_worker(data_dir)
        worker.start()
        worker.enqueue([Rating(1, 0, 1)] * 30 + [Rating(3, 0, -1)] * 5
                       + [Rating(0, 2, 1)] * 12)
        worker.call("snapshot")
        return worker

    def test_export_restore_roundtrip_is_byte_identical(self, tmp_path):
        worker = self.snapshotted_worker(tmp_path)
        exported = worker.call("export")
        worker.stop()
        clone = self.durable_worker(tmp_path)
        try:
            assert clone.start()["replayed"] == 0  # the image alone
            assert (json.dumps(clone.export_state(), sort_keys=True)
                    == json.dumps(exported, sort_keys=True))
        finally:
            clone.stop()

    def test_restore_rejects_wrong_shard(self, tmp_path):
        self.snapshotted_worker(tmp_path).stop()
        shutil.copytree(tmp_path / "shard-00" / "images",
                        tmp_path / "shard-01" / "images")
        other = self.durable_worker(tmp_path, shard_id=1)
        with pytest.raises(RecoveryError, match="image for shard 0"):
            other.start()


