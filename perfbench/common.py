"""Pieces every workload shares: thresholds, the verdict oracle, outcomes,
and the per-layer table built from spans."""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from perfbench import stats
from perfbench.inputs import Events
from perfbench.spec import PER_LAYER
from perfbench.trace import Span, Tracer, by_name
from repro.core.model import join_half_verdicts
from repro.core.online import OnlineCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.ratings.events import Rating
from repro.ratings.matrix import RatingMatrix
from repro.service.config import ServiceConfig
from repro.service.shard import ShardWorker
from repro.service.snapshot import SnapshotStore
from repro.service.wal import WriteAheadLog

#: The ``repro serve`` defaults, passed explicitly so the service and
#: the batch oracle screen with the same thresholds.
THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=20)
THRESHOLD_ARGS = ["--t-r", "1.0", "--t-a", "0.9", "--t-b", "0.7", "--t-n", "20"]

#: Load threads (one keep-alive connection each), service shards and
#: worker processes: the 2 cores of the reference host.
WORKERS = 2
#: Ratings per ``POST /ratings`` request or ``submit`` call.
BATCH = 50

Pair = Tuple[int, int]


@dataclass
class Outcome:
    """What one run measured, plus the detail report written beside it."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    report: Dict[str, Any] = field(default_factory=dict)


def concat(parts: Sequence[Events]) -> Events:
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]))


def oracle_pairs(n: int, events: Events) -> Set[Pair]:
    """Batch :class:`OptimizedCollusionDetector` verdicts on ``events``."""
    matrix = RatingMatrix(n)
    if events[0].size:
        matrix.add_events(*events)
    report = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
    return set(report.pair_set())


def as_pairs(raw: Iterable[Sequence[int]]) -> Set[Pair]:
    return {(int(p[0]), int(p[1])) for p in raw}


def to_ratings(events: Events) -> List[Rating]:
    return [Rating(r, t, v) for r, t, v in zip(events[0].tolist(),
                                                events[1].tolist(),
                                                events[2].tolist())]


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------
def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def mean_ms(spans: Sequence[Span]) -> float:
    return 1000.0 * stats.mean([s["dur"] for s in spans]) if spans else 0.0


def layer_table(spans: Sequence[Span], requests: int) -> List[Dict[str, Any]]:
    """Self time per span name: calls, total, and mean per request."""
    rows = []
    for name, group in sorted(by_name(spans).items()):
        total = sum(s["self"] for s in group)
        rows.append({
            "layer": name,
            "calls": len(group),
            "self_ms_total": 1000.0 * total,
            "self_ms_per_call": 1000.0 * total / len(group),
            "self_ms_per_request": 1000.0 * total / requests if requests else 0.0,
        })
    return rows


def apply_span_layers(layers: Dict[str, float], spans: Sequence[Span],
                      tallies: Dict[str, Sequence[float]]) -> None:
    """Fill the span-derived per-layer metrics shared by every workload."""
    named = by_name(spans)
    for metric, span_name in (("coordinator.submit_ms", "coordinator.submit"),
                              ("shard.apply_ms", "shard.apply"),
                              ("process.submit_ms", "process.submit"),
                              ("worker.call_ms", "worker.call"),
                              ("wal.append_ms", "wal.append"),
                              ("wal.replay_ms", "wal.replay"),
                              ("snapshot.save_ms", "snapshot.save"),
                              ("snapshot.load_ms", "snapshot.load"),
                              ("online.screen_ms", "online.screen"),
                              ("model.join_ms", "model.join"),
                              ("rings.build_ms", "rings.build"),
                              ("rings.detect_ms", "rings.detect"),
                              ("matrix.build_ms", "matrix.build"),
                              ("optimized.detect_ms", "optimized.detect")):
        if named.get(span_name):
            layers[metric] = mean_ms(named[span_name])
    submits = named.get("coordinator.submit", [])
    layers["coordinator.rejected"] = float(
        sum(1 for s in submits if s.get("error") == "BackpressureError"))
    process_submits = named.get("process.submit", [])
    if process_submits:
        waits = named.get("process.ack_wait", [])
        layers["process.ack_wait_ms"] = (
            1000.0 * sum(s["dur"] for s in waits) / len(process_submits))
    if named.get("wal.append"):
        layers["wal.appends"] = float(len(named["wal.append"]))
    if named.get("snapshot.save"):
        layers["snapshot.saves"] = float(len(named["snapshot.save"]))
    observe = tallies.get("online.observe")
    if observe and observe[0]:
        layers["online.observe_us"] = 1e6 * observe[1] / observe[0]
    decode = tallies.get("io.decode")
    if decode and decode[0]:
        layers["io.decode_ms"] = 1000.0 * decode[1] / decode[0] * 1000.0
        layers["io.events"] = float(decode[0])
    depth = tallies.get("shard.queue_depth_max")
    if depth:
        layers["shard.queue_depth_max"] = float(depth[0])


# ----------------------------------------------------------------------
# worker-side layers, replayed in this process
# ----------------------------------------------------------------------
def replay_worker_layers(tracer: Tracer, config: ServiceConfig,
                         periods: Sequence[Sequence[Events]],
                         scratch: pathlib.Path) -> Dict[str, Any]:
    """Re-run the shard workers' per-batch and per-close layers here.

    Process-mode workers run in forked children that the traced server
    cannot report from, so the same sub-batches go through the same
    public functions in this process: ``WriteAheadLog.append`` and
    ``ShardWorker.apply`` per sub-batch; per period close
    ``period_candidates`` on every shard, ``join_half_verdicts`` and a
    ``SnapshotStore.save`` of each shard's exported state.  Returns the
    replayed verdicts (one pair set per period) and byte counts.
    """
    shards = [ShardWorker(i, config) for i in range(config.num_shards)]
    wals = [WriteAheadLog(scratch / f"shard-{i}" / "wal") for i in range(len(shards))]
    stores = [SnapshotStore(scratch / f"shard-{i}" / "snapshots", keep=1)
              for i in range(len(shards))]
    verdicts: List[Set[Pair]] = []
    snapshot_bytes: List[int] = []
    try:
        tracer.wrap(WriteAheadLog, "append", "wal.append")
        tracer.wrap(SnapshotStore, "save", "snapshot.save")
        tracer.wrap(ShardWorker, "apply", "shard.apply")
        tracer.tally(OnlineCollusionDetector, "observe", "online.observe")
        tracer.wrap(OnlineCollusionDetector, "period_candidates", "online.screen")
        for epoch, period in enumerate(periods):
            for wal in wals:
                wal.open_epoch(epoch)
            for batch in period:
                shard_of = batch[1] % config.num_shards
                for shard_id, shard in enumerate(shards):
                    mask = shard_of == shard_id
                    if not mask.any():
                        continue
                    sub = to_ratings((batch[0][mask], batch[1][mask], batch[2][mask]))
                    wals[shard_id].append(sub)
                    shard.apply(sub)
            gate = sum(shard.detector.period_reputation() for shard in shards)
            halves = [h for shard in shards
                      for h in shard.detector.period_candidates(reputation=gate)]
            joined = tracer.record("model.join", join_half_verdicts, halves)
            verdicts.append({(p.low, p.high) for p in joined})
            for shard_id, shard in enumerate(shards):
                path = stores[shard_id].save({
                    "epoch": epoch + 1, "wal_applied": 0,
                    "shard": shard.export_state(),
                })
                snapshot_bytes.append(path.stat().st_size)
                shard.detector.reset_period()
    finally:
        for wal in wals:
            wal.close()
        tracer.unwrap()
    wal_bytes = sum(p.stat().st_size for p in scratch.rglob("wal-*.jsonl"))
    return {"verdicts": verdicts, "wal_bytes": wal_bytes,
            "snapshot_bytes": stats.mean(snapshot_bytes)}


def write_report(path: pathlib.Path, report: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
