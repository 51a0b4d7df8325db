"""Tests for ServiceConfig validation and the partition function."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.service import ServiceConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig(n=100)
        assert config.num_shards == 4
        assert config.queue_capacity == 1024
        assert not config.durable

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=n)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_bad_shards_rejected(self, shards):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=10, num_shards=shards)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            ServiceConfig(n=4, num_shards=5)

    def test_bad_queue_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=10, queue_capacity=0)

    def test_negative_snapshot_every_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=10, snapshot_every=-1)

    def test_bad_keep_snapshots_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=10, keep_snapshots=0)

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_bad_port_rejected(self, port):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n=10, port=port)

    @pytest.mark.parametrize("backend", ["dense", "sparse", "mmap", None])
    def test_retired_matrix_engines_rejected(self, backend):
        """The matrix is always CSR and durable shards always write
        state images: there is no engine knob left to set."""
        with pytest.raises(TypeError, match="matrix_backend"):
            ServiceConfig(n=10, matrix_backend=backend)


class TestDurability:
    def test_data_dir_becomes_path(self, tmp_path):
        config = ServiceConfig(n=10, data_dir=str(tmp_path / "svc"))
        assert isinstance(config.data_dir, pathlib.Path)
        assert config.durable

    def test_no_data_dir_is_ephemeral(self):
        assert ServiceConfig(n=10).durable is False


class TestPartition:
    def test_shard_of_is_modulo(self):
        config = ServiceConfig(n=100, num_shards=7)
        for target in range(100):
            assert config.shard_of(target) == target % 7

    def test_every_shard_owns_a_target(self):
        config = ServiceConfig(n=12, num_shards=5)
        owned = {config.shard_of(t) for t in range(config.n)}
        assert owned == set(range(5))
