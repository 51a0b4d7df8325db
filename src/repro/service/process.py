"""Process-per-shard detection service: the multi-core front-end.

:class:`ProcessDetectionService` is :class:`~repro.service.coordinator.
DetectionService` bound to the subprocess shard transport
(:class:`~repro.service.worker.ProcessShardWorker`): each shard's
detector runs in its own OS process, so ingest and screening scale past
the GIL.  Everything else — the public surface, the verdict guarantee,
the per-shard ``shard-NN/`` durability layout and the meta-first epoch
commit — is the one coordinator's, so a data dir written by either
transport reopens under the other.
"""

from __future__ import annotations

from repro.core.model import join_half_verdicts
from repro.service.coordinator import DetectionService
from repro.service.snapshot import META_FORMAT
from repro.service.worker import ProcessShardWorker

__all__ = ["ProcessDetectionService", "META_FORMAT", "join_half_verdicts"]


class ProcessDetectionService(DetectionService):
    """Sharded collusion-detection service, one process per shard.

    ``status()`` additionally reports each worker's pid for
    ``GET /healthz``.
    """

    transport = ProcessShardWorker
    mode = "process"
