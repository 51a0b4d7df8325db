"""Metric and workload names, shared by the runner and its tests.

``BENCHMARK.json`` at the repository root is the reference; the tests
check that these tables match it name for name and unit for unit.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS: Tuple[str, ...] = (
    "http_ingest", "http_mixed", "batch_trace", "crash_restart",
)

#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ingest_eps": "1/s",
    "op_p50_ms": "ms",
    "close_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by every traced run: name -> unit.  A
#: layer a workload bypasses reads 0 there.
PER_LAYER: Dict[str, str] = {
    "http_api.requests": "count",
    "http_api.busy_ms": "ms",
    "http_api.decode_ms": "ms",
    "http_api.wait_ms": "ms",
    "http_api.failed": "count",
    "coordinator.submit_ms": "ms",
    "coordinator.rejected": "count",
    "shard.apply_ms": "ms",
    "shard.queue_depth_max": "count",
    "process.submit_ms": "ms",
    "process.ack_wait_ms": "ms",
    "worker.call_ms": "ms",
    "worker.restarts": "count",
    "wal.appends": "count",
    "wal.append_ms": "ms",
    "wal.bytes": "bytes",
    "wal.replay_ms": "ms",
    "wal.replayed_events": "count",
    "snapshot.saves": "count",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "bytes",
    "snapshot.load_ms": "ms",
    "online.observe_us": "us",
    "online.screen_ms": "ms",
    "online.pairs_evaluated": "count",
    "model.join_ms": "ms",
    "rings.build_ms": "ms",
    "rings.detect_ms": "ms",
    "rings.edges": "count",
    "io.decode_ms": "ms",
    "io.events": "count",
    "matrix.build_ms": "ms",
    "matrix.bytes": "bytes",
    "optimized.detect_ms": "ms",
    "optimized.pact_eval": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
