"""Tests for the epoch-segmented write-ahead log."""

import pytest

from repro.errors import ServiceError, TraceError
from repro.ratings.events import Rating
from repro.service import WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal")


def events(*triples):
    return [Rating(r, t, v, time=float(i))
            for i, (r, t, v) in enumerate(triples)]


class TestWriteSide:
    def test_append_requires_open_epoch(self, wal):
        with pytest.raises(ServiceError, match="open_epoch"):
            wal.append(events((0, 1, 1)))

    def test_negative_epoch_rejected(self, wal):
        with pytest.raises(ServiceError):
            wal.open_epoch(-1)

    def test_segment_naming(self, wal):
        assert wal.segment_path(42).name == "wal-00000042.jsonl"

    def test_append_returns_count_and_persists(self, wal):
        wal.open_epoch(0)
        assert wal.append(events((0, 1, 1), (2, 3, -1))) == 2
        wal.close()
        replayed = list(wal.replay(0))
        assert [(e.rater, e.target, e.value) for e in replayed] == [
            (0, 1, 1), (2, 3, -1)]

    def test_appends_accumulate_within_epoch(self, wal):
        wal.open_epoch(0)
        wal.append(events((0, 1, 1)))
        wal.append(events((1, 0, 1)))
        assert wal.count(0) == 2

    def test_reopen_appends_rather_than_truncates(self, wal, tmp_path):
        wal.open_epoch(0)
        wal.append(events((0, 1, 1)))
        wal.close()
        again = WriteAheadLog(tmp_path / "wal")
        again.open_epoch(0)
        again.append(events((1, 0, -1)))
        again.close()
        assert again.count(0) == 2

    def test_rotate_switches_segments(self, wal):
        wal.open_epoch(0)
        wal.append(events((0, 1, 1)))
        wal.rotate(1)
        wal.append(events((2, 3, 1)))
        wal.close()
        assert wal.count(0) == 1
        assert wal.count(1) == 1
        assert wal.epochs() == [0, 1]

    def test_fsync_mode_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync=True)
        wal.open_epoch(0)
        assert wal.append(events((0, 1, 1))) == 1
        wal.close()
        assert wal.count(0) == 1


class TestReadSide:
    def test_missing_segment_is_empty(self, wal):
        assert list(wal.replay(99)) == []
        assert wal.count(99) == 0

    def test_skip_streams_only_the_tail(self, wal):
        wal.open_epoch(0)
        wal.append(events((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        wal.close()
        tail = list(wal.replay(0, skip=2))
        assert [(e.rater, e.target) for e in tail] == [(2, 3)]

    def test_replay_validates_ids_against_n(self, wal):
        wal.open_epoch(0)
        wal.append(events((0, 7, 1)))
        wal.close()
        with pytest.raises(TraceError):
            list(wal.replay(0, n=5))

    def test_replay_names_an_undecodable_line(self, wal):
        wal.open_epoch(0)
        wal.append(events((0, 1, 1)))
        wal.close()
        with wal.segment_path(0).open("ab") as handle:
            handle.write(b'{"rater": 1, "target": 2, "value": 1}\xff\n')
        with pytest.raises(TraceError, match=r"wal-00000000\.jsonl:2: invalid UTF-8"):
            list(wal.replay(0))

    def test_epochs_sorted(self, wal):
        for epoch in (3, 0, 7):
            wal.open_epoch(epoch)
            wal.append(events((0, 1, 1)))
        wal.close()
        assert wal.epochs() == [0, 3, 7]
