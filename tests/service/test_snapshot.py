"""Tests for the atomic JSON documents and the REPM state-image container."""

import json

import numpy as np
import pytest

from repro.errors import RecoveryError, ServiceError
from repro.service import SnapshotStore
from repro.service.snapshot import (IMAGE_FORMAT, SNAPSHOT_FORMAT, map_image,
                                    write_image, write_json)


def state(epoch=0, wal_applied=0, **extra):
    out = {"epoch": epoch, "wal_applied": wal_applied, "payload": "x"}
    out.update(extra)
    return out


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path / "snaps")


class TestSaveLoad:
    def test_empty_store_loads_none(self, store):
        assert store.load_latest() is None

    def test_roundtrip(self, store):
        store.save(state(epoch=2, wal_applied=17, payload="hello"))
        loaded = store.load_latest()
        assert loaded["epoch"] == 2
        assert loaded["wal_applied"] == 17
        assert loaded["payload"] == "hello"

    def test_file_naming(self, store):
        path = store.save(state(epoch=3, wal_applied=42))
        assert path.name == "snapshot-00000003-0000000042.json"

    def test_save_requires_position_keys(self, store):
        with pytest.raises(KeyError):
            store.save({"payload": "x"})

    def test_latest_is_greatest_position(self, store):
        store.save(state(epoch=1, wal_applied=0, payload="old"))
        store.save(state(epoch=1, wal_applied=50, payload="mid"))
        store.save(state(epoch=2, wal_applied=0, payload="new"))
        assert store.load_latest()["payload"] == "new"

    def test_file_is_one_compact_sorted_dumps(self, store, tmp_path):
        """``write_json`` writes exactly one ``json.dumps`` string (the C
        encoder), for a store document and for a bare payload such as
        ``meta.json``."""
        payload = state(epoch=4, wal_applied=9,
                        floats=[i / 7 for i in range(2000)],
                        nested={"b": [True, None], "a": "\u00e9"})
        path = store.save(payload)
        payload_with_format = {**payload, "format": SNAPSHOT_FORMAT}
        assert path.read_bytes() == json.dumps(
            payload_with_format, separators=(",", ":"),
            sort_keys=True).encode()
        meta = tmp_path / "meta.json"
        write_json(meta, payload)
        assert meta.read_bytes() == json.dumps(
            payload, separators=(",", ":"), sort_keys=True).encode()

    def test_no_tmp_file_left_behind(self, store):
        store.save(state())
        leftovers = [p for p in store.directory.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


class TestPruning:
    def test_keeps_only_newest(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps", keep=2)
        for epoch in range(5):
            store.save(state(epoch=epoch))
        kept = store.list()
        assert [epoch for epoch, _, _ in kept] == [3, 4]

    def test_keep_below_one_rejected(self, tmp_path):
        with pytest.raises(RecoveryError):
            SnapshotStore(tmp_path / "snaps", keep=0)


class TestCorruption:
    def test_torn_snapshot_raises(self, store):
        path = store.save(state())
        path.write_text("{not json")
        with pytest.raises(RecoveryError, match="cannot read"):
            store.load_latest()

    def test_format_mismatch_raises(self, store):
        path = store.save(state())
        doc = json.loads(path.read_text())
        doc["format"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(RecoveryError, match="format"):
            store.load_latest()

    def test_unrelated_files_ignored(self, store):
        (store.directory / "README.txt").write_text("not a snapshot")
        store.save(state(epoch=1))
        assert store.load_latest()["epoch"] == 1


def sample_arrays():
    return {"indptr": np.array([0, 2, 2, 3], dtype=np.int64),
            "values": np.array([5, -1, 7], dtype=np.int64),
            "empty": np.empty(0, dtype=np.int64)}


class TestStateImage:
    """``write_image`` / ``map_image``: the container shard images use."""

    def test_publish_map_roundtrip(self, tmp_path):
        path = tmp_path / "state.repm"
        write_image(path, sample_arrays(), {"kind": "shard", "epoch": 7})
        arrays, meta, mapping = map_image(path)
        assert meta == {"kind": "shard", "epoch": 7}
        assert list(arrays) == list(sample_arrays())
        for name, want in sample_arrays().items():
            np.testing.assert_array_equal(arrays[name], want)
            assert not arrays[name].flags.writeable  # borrowed view
            assert arrays[name].ctypes.data % 64 == 0 or not want.size
        del arrays
        mapping.close()

    def test_publish_is_atomic(self, tmp_path):
        path = tmp_path / "state.repm"
        write_image(path, sample_arrays(), {"epoch": 1})
        first = path.read_bytes()
        write_image(path, {}, {"epoch": 2})  # overwrite in place
        assert path.read_bytes() != first
        assert not list(tmp_path.glob("*.tmp"))
        arrays, meta, mapping = map_image(path)
        assert arrays == {} and meta == {"epoch": 2}
        mapping.close()

    def test_rejects_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.repm"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(RecoveryError, match="magic"):
            map_image(path)
        path.write_bytes(b"RE")
        with pytest.raises(RecoveryError, match="truncated"):
            map_image(path)
        write_image(path, sample_arrays(), {})
        path.write_bytes(path.read_bytes()[:-48])  # into "values"
        with pytest.raises(RecoveryError, match="truncated in segment"):
            map_image(path)

    def test_rejects_future_format_version(self, tmp_path):
        path = tmp_path / "state.repm"
        write_image(path, sample_arrays(), {})
        raw = bytearray(path.read_bytes())
        raw[4:8] = (IMAGE_FORMAT + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(RecoveryError, match="format version"):
            map_image(path)

    def test_write_image_rejects_non_int64(self, tmp_path):
        with pytest.raises(ServiceError, match="int64"):
            write_image(tmp_path / "x.repm",
                        {"x": np.arange(3, dtype=np.float64)}, {})
        assert not list(tmp_path.iterdir())
