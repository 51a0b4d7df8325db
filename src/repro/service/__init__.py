"""`repro.service` — sharded online collusion-detection service.

The deployable host for the streaming detector: rating traffic is
partitioned by target id across shards, each owning its detector,
reputation, WAL and snapshots (:mod:`~repro.service.shard`).  One
coordinator, :class:`~repro.service.coordinator.DetectionService`,
drives them through a two-implementation transport port — in-process
threads (:class:`~repro.service.shard.ShardWorker`, the default) or one
OS process per shard (:mod:`~repro.service.worker`, bound by
:class:`~repro.service.process.ProcessDetectionService`).  Both share
one durability layout: per-shard write-ahead logs
(:mod:`~repro.service.wal`) and snapshots
(:mod:`~repro.service.snapshot`) under ``data_dir/shard-NN/`` plus an
atomically written ``meta.json`` that commits each epoch before the
shards advance.  Period closes merge per-shard screens into epoch
verdicts, and a stdlib HTTP API serves queries
(:mod:`~repro.service.http_api`).

Guarantee: for any accepted event sequence, the merged per-epoch
verdicts equal :class:`repro.core.optimized.OptimizedCollusionDetector`
run on the epoch's full rating matrix — including across a crash and
recovery, on either transport.  See ``docs/SERVICE.md`` for the
architecture and the durability contract, and ``docs/OPERATIONS.md``
for deployment and capacity planning.

Quickstart
----------
>>> from repro.service import DetectionService, ServiceConfig
>>> service = DetectionService(ServiceConfig(n=50, num_shards=2)).start()
>>> service.submit_one(3, 7, 1)
>>> report = service.end_period().report
>>> service.stop()
"""

from repro.service.config import ServiceConfig
from repro.service.coordinator import DetectionService, EpochResult
from repro.service.http_api import ServiceHTTPServer
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.process import ProcessDetectionService
from repro.service.shard import ShardWorker
from repro.service.snapshot import SnapshotStore
from repro.service.wal import WriteAheadLog
from repro.service.worker import ProcessShardWorker

__all__ = [
    "ServiceConfig",
    "DetectionService",
    "ProcessDetectionService",
    "EpochResult",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "LatencyHistogram",
    "ShardWorker",
    "ProcessShardWorker",
    "SnapshotStore",
    "WriteAheadLog",
]
