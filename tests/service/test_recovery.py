"""Crash/recovery tests, run on both shard transports.

The durability contract under test: *map each shard's latest state
image + replay the current epoch's WAL tail* reproduces byte-identical
per-pair/per-node counters and identical verdicts versus a run that was
never interrupted — and both equal the batch detector on the full
period matrix (the acceptance criterion of the service subsystem).
Every test takes the ``service_cls`` fixture: the thread coordinator
and the process coordinator share one layout and one commit protocol.
"""

import pathlib
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import RecoveryError
from repro.ratings.events import Rating
from repro.ratings.matrix import RatingMatrix
from repro.service import ServiceConfig, SnapshotStore

from tests.service.conftest import (
    SERVICE_THRESHOLDS,
    events_to_matrix,
    shard_states,
    submit_all,
)


def durable_config(data_dir, **overrides):
    options = dict(n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS,
                   data_dir=data_dir)
    options.update(overrides)
    return ServiceConfig(**options)


class TestCleanRestart:
    def test_stop_snapshot_makes_restart_replay_nothing(self, service_cls, tmp_path,
                                                        planted_events):
        service = service_cls(durable_config(tmp_path / "svc")).start()
        submit_all(service, planted_events)
        before = shard_states(service)
        events_before = service.epoch_events
        service.stop()  # snapshots by default
        image_files = {
            (path.name, path.stat().st_ino)
            for path in (tmp_path / "svc").glob("shard-*/images/*.repm")
        }

        revived = service_cls(durable_config(tmp_path / "svc")).start()
        assert revived.metrics.ops.get("recovered_events") == 0
        assert revived.epoch_events == events_before
        assert shard_states(revived) == before
        # nothing replayed, so the restart rewrote no image
        assert {
            (path.name, path.stat().st_ino)
            for path in (tmp_path / "svc").glob("shard-*/images/*.repm")
        } == image_files
        revived.stop()


class TestKillMidEpoch:
    def test_recovery_is_byte_identical_to_uninterrupted_run(
            self, service_cls, tmp_path, planted_events):
        baseline = service_cls(durable_config(tmp_path / "a")).start()
        submit_all(baseline, planted_events)
        expected_states = shard_states(baseline)
        expected_report = baseline.end_period().report
        baseline.stop()

        crashed = service_cls(durable_config(tmp_path / "b")).start()
        cut = len(planted_events) // 2
        submit_all(crashed, planted_events[:cut])
        crashed.kill()  # no snapshot, no goodbye

        revived = service_cls(durable_config(tmp_path / "b")).start()
        # nothing was snapshotted, so the whole epoch is WAL tail
        assert revived.metrics.ops.get("recovered_events") == cut
        submit_all(revived, planted_events[cut:])
        assert shard_states(revived) == expected_states
        report = revived.end_period().report
        assert report.pair_set() == expected_report.pair_set()
        assert report.examined_nodes == expected_report.examined_nodes
        revived.stop()

    def test_mid_epoch_snapshots_bound_the_replayed_tail(self, service_cls, tmp_path,
                                                         planted_events):
        config = durable_config(tmp_path / "svc", snapshot_every=40)
        service = service_cls(config).start()
        submit_all(service, planted_events)
        applied = service.epoch_events
        service.kill()

        revived = service_cls(config).start()
        recovered = revived.metrics.ops.get("recovered_events")
        assert recovered < applied  # a snapshot absorbed most of the epoch
        assert revived.epoch_events == applied
        revived.stop()

    def test_verdicts_survive_kill_and_restart(self, service_cls, tmp_path,
                                               planted_matrix,
                                               planted_events):
        """The acceptance check: merged verdicts == batch detector,
        including across a mid-epoch crash."""
        config = durable_config(tmp_path / "svc", snapshot_every=100)
        service = service_cls(config).start()
        cut = (2 * len(planted_events)) // 3
        submit_all(service, planted_events[:cut])
        service.kill()

        revived = service_cls(config).start()
        submit_all(revived, planted_events[cut:])
        result = revived.end_period()
        revived.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            planted_matrix)
        assert result.report.pair_set() == batch.pair_set()
        assert result.report.examined_nodes == batch.examined_nodes


class TestEndPeriodCommit:
    def test_crash_after_close_finds_new_epoch_current(self, service_cls, tmp_path,
                                                       planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        closed = service.end_period()
        service.kill()  # right after the commit point

        revived = service_cls(config).start()
        assert revived.epoch == closed.epoch + 1
        assert revived.epoch_events == 0
        assert revived.metrics.ops.get("recovered_events") == 0
        assert revived.suspects()["pairs"] == [[4, 5], [6, 7]]
        revived.stop()

    def test_published_reputation_survives_restart(self, service_cls, tmp_path,
                                                   planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        service.end_period()
        expected = {node: service.reputation_of(node) for node in (0, 4, 9)}
        service.kill()

        revived = service_cls(config).start()
        for node, value in expected.items():
            assert revived.reputation_of(node) == value
            assert revived.reputation_of(node, live=True) == value
        revived.stop()


class TestConfigDrift:
    def _populated_dir(self, service_cls, tmp_path):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        service.submit_one(1, 2, 1)
        service.stop()
        return tmp_path / "svc"

    def test_universe_mismatch_refused(self, service_cls, tmp_path):
        data_dir = self._populated_dir(service_cls, tmp_path)
        with pytest.raises(RecoveryError, match="universe"):
            service_cls(durable_config(data_dir, n=50)).start()

    def test_shard_count_mismatch_refused(self, service_cls, tmp_path):
        data_dir = self._populated_dir(service_cls, tmp_path)
        with pytest.raises(RecoveryError, match="shards"):
            service_cls(durable_config(data_dir, num_shards=4)).start()

    def test_threshold_mismatch_refused(self, service_cls, tmp_path):
        data_dir = self._populated_dir(service_cls, tmp_path)
        other = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=99)
        with pytest.raises(RecoveryError, match="thresholds"):
            service_cls(durable_config(data_dir, thresholds=other)).start()


class TestWorkerDurability:
    def test_kill_recovery_is_byte_identical(self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        cut = len(planted_events) // 2
        submit_all(service, planted_events[:cut])
        first = service.end_period()
        submit_all(service, planted_events[cut:])
        before = shard_states(service)
        service.kill()  # no drain, no snapshot, no meta update

        revived = service_cls(config).start()
        try:
            assert revived.epoch == 1
            assert revived.metrics.ops.get("recovered_events") > 0
            assert shard_states(revived) == before
            assert revived.suspects()["epoch"] == first.epoch
            report = revived.end_period().report
        finally:
            revived.stop()
        # across crash + recovery the verdicts still match the batch
        # detector on the surviving (post-close) events
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            events_to_matrix(planted_events[cut:]))
        assert report.pair_set() == batch.pair_set()

    def test_worker_crash_restarts_from_wal(self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        cut = len(planted_events) // 2
        submit_all(service, planted_events[:cut])
        service.kill_worker(0)
        assert not service.workers[0].alive
        # next submit detects the corpse and restarts it from its WAL
        submit_all(service, planted_events[cut:])
        try:
            assert service.workers[0].alive
            assert service.status()["workers"][0]["restarts"] == 1
            assert service.metrics.ops.get("worker_restarts") == 1
            report = service.end_period().report
        finally:
            service.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            events_to_matrix(planted_events))
        assert report.pair_set() == batch.pair_set()

    def test_worker_dirs_are_per_shard(self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        service.stop()
        for shard_id in range(config.num_shards):
            shard_dir = tmp_path / "svc" / f"shard-{shard_id:02d}"
            assert (shard_dir / "wal").is_dir()
            assert (shard_dir / "images").is_dir()
            assert not (shard_dir / "snapshots").exists()
        assert (tmp_path / "svc" / "meta.json").is_file()


class TestMmapDurability:
    """Durable shards snapshot binary state images (``images/*.repm``)
    and map them back on restart — recovery must stay byte-identical
    to the uninterrupted run and to the batch detector."""

    def test_workers_publish_images_not_json_snapshots(self, service_cls, tmp_path,
                                                       planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        service.stop()
        for shard_id in range(config.num_shards):
            shard_dir = tmp_path / "svc" / f"shard-{shard_id:02d}"
            assert list((shard_dir / "images").glob("image-*.repm"))
            assert not (shard_dir / "snapshots").exists()

    def test_graceful_stop_restart_maps_image_and_replays_nothing(
            self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        before = shard_states(service)
        events_before = service.epoch_events
        service.stop()

        revived = service_cls(config).start()
        try:
            assert revived.epoch_events == events_before
            assert revived.metrics.ops.get("recovered_events") == 0
            assert shard_states(revived) == before
            for entry in revived.status()["workers"]:
                assert entry["restart_ms"] > 0
        finally:
            revived.stop()

    def test_kill_recovery_is_byte_identical(self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc", snapshot_every=20)
        service = service_cls(config).start()
        cut = len(planted_events) // 2
        submit_all(service, planted_events[:cut])
        first = service.end_period()
        submit_all(service, planted_events[cut:])
        before = shard_states(service)
        service.kill()  # no drain, no snapshot, no meta update

        revived = service_cls(config).start()
        try:
            assert revived.epoch == 1
            assert shard_states(revived) == before
            assert revived.suspects()["epoch"] == first.epoch
            report = revived.end_period().report
        finally:
            revived.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            events_to_matrix(planted_events[cut:]))
        assert report.pair_set() == batch.pair_set()


class TestImageRecovery:
    """What recovery does with the files a crash or an older build can
    leave next to (or instead of) the images."""

    def test_json_era_snapshots_are_refused(self, service_cls, tmp_path,
                                            planted_events):
        """A shard whose only state is a JSON snapshot, as builds
        before images wrote it, is refused with the migration —
        never opened as an empty shard."""
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        service.end_period()
        service.stop()
        for shard_dir in (tmp_path / "svc").glob("shard-*"):
            shutil.rmtree(shard_dir / "images")
            SnapshotStore(shard_dir / "snapshots").save(
                {"epoch": 1, "wal_applied": 0, "shard": {}})

        with pytest.raises(RecoveryError,
                           match="retired JSON shard snapshots.*"
                                 "--matrix-backend mmap"):
            service_cls(config).start()
        assert not list((tmp_path / "svc").glob("shard-*/images/*.repm"))

    def test_empty_snapshots_dir_is_not_refused(self, service_cls, tmp_path,
                                                planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        before = shard_states(service)
        service.kill()
        for shard_dir in (tmp_path / "svc").glob("shard-*"):
            (shard_dir / "snapshots").mkdir()

        revived = service_cls(config).start()
        try:
            assert shard_states(revived) == before
        finally:
            revived.stop()

    def test_stale_image_tmp_is_ignored(self, service_cls, tmp_path,
                                        planted_events):
        """A crash between the fsync and the rename of an image leaves
        its ``.repm.tmp``: recovery takes the previous image and the
        WAL tail."""
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        cut = len(planted_events) // 2
        submit_all(service, planted_events[:cut])
        service.snapshot()
        submit_all(service, planted_events[cut:])
        before = shard_states(service)
        service.kill()
        for images in (tmp_path / "svc").glob("shard-*/images"):
            latest = sorted(images.glob("image-*.repm"))[-1]
            epoch, applied = latest.stem.split("-")[1:]
            stale = images / f"image-{epoch}-{int(applied) + 1:010d}.repm.tmp"
            stale.write_bytes(latest.read_bytes()[:-8])

        revived = service_cls(config).start()
        try:
            assert (revived.metrics.ops.get("recovered_events")
                    == len(planted_events) - cut)
            assert shard_states(revived) == before
        finally:
            revived.stop()

    def test_truncated_latest_image_is_refused(self, service_cls, tmp_path,
                                               planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        submit_all(service, planted_events)
        service.stop()
        latest = sorted(
            (tmp_path / "svc" / "shard-01" / "images").glob("image-*.repm"))[-1]
        latest.write_bytes(latest.read_bytes()[:-8])

        with pytest.raises(RecoveryError, match="truncated"):
            service_cls(config).start()


class TestControlPlaneRecovery:
    """A dead worker must be recovered by *any* interaction, not just a
    submit that happens to route an event to its shard — otherwise a
    crash between submits wedges peek/drain/end-period forever."""

    def test_dead_worker_restarts_on_peek_and_end_period(self, service_cls, tmp_path,
                                                         planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        try:
            submit_all(service, planted_events)
            service.kill_worker(0)
            assert not service.workers[0].alive
            peeked = service.peek()  # no submit in between
            assert service.workers[0].alive
            assert service.status()["workers"][0]["restarts"] == 1
            assert peeked.report.pair_set() == {(4, 5), (6, 7)}

            service.kill_worker(1)
            report = service.end_period().report
            assert service.workers[1].alive
        finally:
            service.stop()
        assert report.pair_set() == {(4, 5), (6, 7)}

    def test_dead_worker_restarts_on_drain(self, service_cls, tmp_path, planted_events):
        config = durable_config(tmp_path / "svc")
        service = service_cls(config).start()
        try:
            submit_all(service, planted_events)
            service.kill_worker(2)
            service.drain()
            status = service.status()
            assert status["workers"][2]["alive"] is True
            assert status["workers"][2]["restarts"] == 1
            # restart resynced the shard's counters from its WAL
            assert sum(w["epoch_events"] for w in status["workers"]) == \
                len(planted_events)
        finally:
            service.stop()


class TestRestartAfterClose:
    """Regression: a shard (re)started after a period close inherited
    the previous worker's op-counter baselines, so the next close raised
    ``ValueError: count must be non-negative``."""

    @pytest.mark.parametrize("restart", ["kill_and_start", "kill_worker"])
    def test_close_restart_close_equals_batch(self, service_cls, tmp_path,
                                              planted_events, restart):
        service = service_cls(durable_config(tmp_path / "svc")).start()
        cut = len(planted_events) // 2
        try:
            submit_all(service, planted_events[:cut])
            service.end_period()
            if restart == "kill_and_start":
                service.kill()
                service.start()
            else:
                service.kill_worker(0)
            submit_all(service, planted_events[cut:])
            report = service.end_period().report
        finally:
            service.stop()
        batch = OptimizedCollusionDetector(SERVICE_THRESHOLDS).detect(
            events_to_matrix(planted_events[cut:]))
        assert report.pair_set() == batch.pair_set()
        assert report.examined_nodes == batch.examined_nodes


class TestRetiredLayout:
    def test_single_wal_layout_is_refused(self, service_cls, tmp_path):
        """A data dir in the retired layout (top-level ``wal/``, no
        ``meta.json``) must fail loudly, never open as an empty
        service."""
        wal_dir = tmp_path / "svc" / "wal"
        wal_dir.mkdir(parents=True)
        (wal_dir / "wal-00000000.jsonl").write_text(
            '{"rater": 1, "target": 2, "value": 1, "time": 0.0}\n')
        service = service_cls(durable_config(tmp_path / "svc"))
        with pytest.raises(RecoveryError, match="retired single-WAL layout"):
            service.start()
        assert not list((tmp_path / "svc").glob("shard-*"))


# ---------------------------------------------------------------------------
# Property: for ANY stream, ANY kill point and ANY snapshot cadence,
# recovery converges to the uninterrupted run — and both match the
# batch detector on the full period matrix.
# ---------------------------------------------------------------------------

N = 16
SMALL = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=15)


@st.composite
def event_streams(draw):
    events = []
    for _ in range(draw(st.integers(0, 50))):
        rater = draw(st.integers(0, N - 1))
        target = draw(st.integers(0, N - 1))
        if rater == target:
            continue
        events.append((rater, target, draw(st.sampled_from([-1, 0, 1]))))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, N - 2))
        b = draw(st.integers(a + 1, N - 1))
        count = draw(st.integers(0, 18))
        events.extend([(a, b, 1), (b, a, 1)] * count)
    return [Rating(r, t, v, time=float(i))
            for i, (r, t, v) in enumerate(events)]


class TestCrashRecoveryProperty:
    @given(stream=event_streams(), data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_recovery_converges_to_uninterrupted_run(self, service_cls, tmp_path,
                                                     stream, data):
        kill_at = data.draw(st.integers(0, len(stream)), label="kill_at")
        snapshot_every = data.draw(st.sampled_from([0, 7]),
                                   label="snapshot_every")
        base = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))

        def config(name):
            return ServiceConfig(n=N, num_shards=3, thresholds=SMALL,
                                 data_dir=base / name,
                                 snapshot_every=snapshot_every)

        uninterrupted = service_cls(config("a")).start()
        submit_all(uninterrupted, stream, batch_size=5)
        expected_states = shard_states(uninterrupted)
        expected = uninterrupted.end_period().report
        uninterrupted.stop()

        crashed = service_cls(config("b")).start()
        submit_all(crashed, stream[:kill_at], batch_size=5)
        crashed.kill()
        revived = service_cls(config("b")).start()
        submit_all(revived, stream[kill_at:], batch_size=5)
        assert shard_states(revived) == expected_states
        recovered = revived.end_period().report
        revived.stop()

        assert recovered.pair_set() == expected.pair_set()
        assert recovered.examined_nodes == expected.examined_nodes

        matrix = RatingMatrix(N)
        for event in stream:
            matrix.add(event.rater, event.target, event.value)
        batch = OptimizedCollusionDetector(SMALL).detect(matrix)
        assert recovered.pair_set() == batch.pair_set()
