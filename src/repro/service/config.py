"""Configuration for the online detection service.

One frozen dataclass carries every knob the service needs; validation
happens at construction so a bad deployment fails before any thread or
file is created (the same eager-failure convention as
:class:`repro.experiments.config` and the simulator).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.thresholds import DetectionThresholds
from repro.errors import ConfigurationError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment parameters for :class:`repro.service.DetectionService`.

    Attributes
    ----------
    n:
        Universe size (node ids ``0 .. n-1``).
    num_shards:
        Number of shard workers; the rating stream is partitioned by
        ``target % num_shards`` so every counter a target needs lives
        on exactly one shard.
    thresholds:
        Detection thresholds shared by every shard detector.
    multi_booster_exclusion:
        Forwarded to each :class:`~repro.core.online.OnlineCollusionDetector`.
    queue_capacity:
        Bounded depth of each shard's ingest queue, in *batches*.  A
        full queue triggers explicit backpressure
        (:class:`~repro.errors.BackpressureError`) — never a silent drop.
    data_dir:
        Directory for ``meta.json`` and the per-shard ``shard-NN/``
        WALs and binary state images (``shard-NN/images/*.repm``,
        mapped back on restart).  ``None`` runs the service
        ephemeral (no durability) — useful for benchmarks and tests of
        the pure ingest path.
    snapshot_every:
        Mid-epoch snapshot cadence in accepted events; ``0`` snapshots
        only at epoch boundaries.  Smaller values shorten the WAL tail
        replayed after a crash at the cost of more image writes.
    fsync:
        When true, every WAL append is fsync'd before the batch is
        acknowledged (durable against power loss, not just process
        crash).  Defaults off: the equivalence guarantees only need
        write ordering, and fsync dominates ingest latency.
    keep_snapshots:
        How many state images per shard to retain (older ones are
        pruned).
    worker_timeout_s:
        How long the coordinator waits for a shard — thread or process
        — to answer a command or acknowledge a durable batch before
        declaring it crashed (:class:`~repro.errors.WorkerCrashError`).
        A thread shard, which cannot be killed, then takes no work
        until the late command returns.
    host / port:
        Bind address for the HTTP query API (``port=0`` lets the OS
        pick a free port — tests rely on this).
    """

    n: int
    num_shards: int = 4
    thresholds: DetectionThresholds = field(default_factory=DetectionThresholds)
    multi_booster_exclusion: bool = True
    queue_capacity: int = 1024
    data_dir: Optional[Union[str, pathlib.Path]] = None
    snapshot_every: int = 0
    fsync: bool = False
    keep_snapshots: int = 3
    worker_timeout_s: float = 60.0
    host: str = "127.0.0.1"
    port: int = 8642

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigurationError(f"n must be an int >= 1, got {self.n!r}")
        if not isinstance(self.num_shards, int) or self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be an int >= 1, got {self.num_shards!r}"
            )
        if self.num_shards > self.n:
            raise ConfigurationError(
                f"num_shards ({self.num_shards}) cannot exceed n ({self.n}) — "
                f"shards beyond the universe would own no targets"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )
        if not self.worker_timeout_s > 0:
            raise ConfigurationError(
                f"worker_timeout_s must be > 0, got {self.worker_timeout_s!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", pathlib.Path(self.data_dir))

    @property
    def durable(self) -> bool:
        """Whether WAL + snapshot durability is enabled."""
        return self.data_dir is not None

    def shard_of(self, target: int) -> int:
        """Owning shard of ``target`` (the partition function)."""
        return target % self.num_shards
