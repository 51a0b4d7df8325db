"""The detection service: sharded ingestion, periods, durability.

This is the long-running host for the streaming detector the paper's
Section IV assumes ("the reputation manager keeps track of the
frequency of ratings … and checks for collusion every period T").  One
coordinator, :class:`DetectionService`, drives the shards through a
small :class:`ShardTransport` port with exactly two implementations:
the in-thread :class:`~repro.service.shard.ShardWorker` (the default)
and the subprocess :class:`~repro.service.worker.ProcessShardWorker`
(:class:`~repro.service.process.ProcessDetectionService`).  Both run
the same :class:`~repro.service.shard.ShardState`.  The coordinator
owns:

* **Ingestion** — :meth:`DetectionService.submit` validates a batch,
  checks every involved shard's queue capacity *before* anything is
  written (a full queue rejects the whole batch: explicit backpressure,
  never a silent drop), then fans the sub-batches out.  In durable mode
  each shard appends its sub-batch to its own WAL under
  ``data_dir/shard-NN/`` before acknowledging, and ``submit`` returns
  only after every involved shard has acknowledged.
* **Period orchestration** — :meth:`end_period` sums the per-shard
  period-reputation contributions into the *global* gate, collects
  every shard's one-sided screens
  (:class:`~repro.core.model.HalfVerdict`) against it, and joins them —
  the join is where cross-shard symmetric pairs are re-checked.  The
  merged verdicts provably equal
  :class:`~repro.core.optimized.OptimizedCollusionDetector` run on the
  epoch's full rating matrix (property-tested).
* **Durability — one layout, one meta-first commit.**  The coordinator
  persists only a small ``meta.json`` (epoch, published reputations,
  latest verdicts), written atomically.  A period close (1) writes the
  meta naming the new epoch — the commit point — then (2) tells every
  shard to reset, snapshot and rotate.  A crash between (1) and (2)
  leaves shards one epoch behind the meta; on restart each replays its
  WAL tail and performs the same epilogue itself.
* **Crash detection + restart-from-WAL.**  Every interaction checks the
  liveness of the shards it touches and restarts a dead one, which in
  durable mode recovers from its own snapshot + WAL.  A batch in flight
  when a shard died surfaces as :class:`~repro.errors.WorkerCrashError`,
  but sub-batches *other* shards acknowledged first are durably
  applied: submit is at-least-once under a crash, and only
  :class:`~repro.errors.BackpressureError` guarantees zero trace.

Concurrency: every method serializes on one re-entrant ingest lock —
``_ingest_lock`` is the inferred guard of every piece of coordinator
state (``repro lint --guards``), and a query that raced ``end_period``
could otherwise observe a half-published epoch (new ``_epoch``, old
verdicts).  Shard state is confined to the transports.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, cast

import numpy as np
import numpy.typing as npt

from repro.core.model import DetectionReport, HalfVerdict, join_half_verdicts
from repro.errors import (
    BackpressureError,
    RecoveryError,
    ServiceError,
    UnknownNodeError,
    WorkerCrashError,
)
from repro.ratings.events import Rating
from repro.rings.detect import RingDetector
from repro.rings.graph import PairCount, SuspectGraph
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.shard import ShardWorker, check_compat, thresholds_signature
from repro.service.snapshot import (META_FORMAT, persisted_int, read_json,
                                    write_json)

__all__ = ["DetectionService", "EpochResult", "ShardTransport"]


@dataclass
class EpochResult:
    """Published outcome of one period close."""

    epoch: int
    report: DetectionReport
    events: int
    reputation: npt.NDArray[np.float64] = field(repr=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON document published to ``GET /suspects``."""
        return {
            "epoch": self.epoch,
            "events": self.events,
            "pairs": [[p.low, p.high] for p in self.report.pairs],
            "colluders": sorted(self.report.colluders()),
            "examined_nodes": self.report.examined_nodes,
            "operations": dict(self.report.operations),
        }


class ShardTransport(Protocol):
    """How the coordinator reaches one shard's :class:`ShardState`.

    Every method is called under the coordinator's ingest lock.
    Commands (``start_call``) queue behind the batches already
    enqueued, so each reply doubles as a barrier.
    """

    shard_id: int
    ready_status: Dict[str, object]

    @property
    def alive(self) -> bool: ...
    @property
    def pid(self) -> Optional[int]: ...
    def start(self, meta_epoch: int) -> Dict[str, object]: ...
    def restart(self, meta_epoch: int) -> Dict[str, object]: ...
    def has_capacity(self) -> bool: ...
    def enqueue(self, batch: Sequence[Rating]) -> None: ...
    def wait_acks(self) -> None: ...
    def start_call(self, name: str, *args: Any) -> Any: ...
    def finish_call(self, token: Any) -> Any: ...
    def call(self, name: str, *args: Any) -> Any: ...
    def queue_depth(self) -> int: ...
    def stop(self) -> None: ...
    def close(self) -> None: ...


class DetectionService:
    """Sharded online collusion-detection service, shards on threads.

    Lifecycle: :meth:`start` (recovering any ``data_dir`` state),
    :meth:`submit`, :meth:`end_period`, :meth:`stop`.
    :class:`~repro.service.ProcessDetectionService` is the same
    coordinator with one process per shard.
    """

    #: The shard transport, constructed as ``transport(shard_id, config)``.
    transport: Callable[[int, ServiceConfig], ShardTransport] = ShardWorker
    #: Reported as ``status()["mode"]``.
    mode = "thread"

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.workers: List[ShardTransport] = []
        self._meta_path: Optional[pathlib.Path] = None
        if config.data_dir is not None:
            self._meta_path = pathlib.Path(config.data_dir) / "meta.json"
        self._ingest_lock = threading.RLock()
        self._ops_baselines: List[Dict[str, int]] = [
            {} for _ in range(config.num_shards)
        ]
        self._started = False
        self._epoch = 0
        self._accepted_per_shard = [0] * config.num_shards
        self._total_per_shard = [0] * config.num_shards
        self._restarts = [0] * config.num_shards
        self._last_snapshot_events = 0
        self._last_close_error: Optional[str] = None
        self._published = np.zeros(config.n, dtype=float)
        self._latest_verdicts: Dict[str, object] = {
            "epoch": -1, "events": 0, "pairs": [], "colluders": [],
            "examined_nodes": 0, "operations": {},
        }
        self._history: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DetectionService":
        """Load the coordinator meta, then start + recover every shard."""
        with self._ingest_lock:
            if self._started:
                return self
            if self._meta_path is not None:
                self._load_meta_locked(self._meta_path)
            self.workers = []
            try:
                for shard_id in range(self.config.num_shards):
                    worker = self.transport(shard_id, self.config)
                    self.workers.append(worker)
                    self._spawned_locked(shard_id, worker.start(self._epoch))
            except Exception:
                # A start that fails mid-loop must not orphan the shards
                # already running: close them and leave zero service
                # state behind (REP008).
                for worker in self.workers:
                    worker.close()
                self.workers = []
                raise
            self._started = True
        return self

    def stop(self, snapshot: bool = True) -> None:
        """Graceful drain and shutdown; the optional snapshot makes the
        next :meth:`start` replay nothing."""
        with self._ingest_lock:
            if not self._started:
                return
            if snapshot and self.config.durable:
                self._snapshot_locked()
            for worker in self.workers:
                worker.stop()  # a dead one is only released
            self._started = False

    def kill(self) -> None:
        """Simulate a front-end crash: no snapshot, no meta update —
        recovery must reproduce exactly the acknowledged batches."""
        with self._ingest_lock:
            for worker in self.workers:
                worker.close()
            self._started = False

    def kill_worker(self, shard_id: int) -> None:
        """Crash one shard (crash-injection hook for tests/chaos)."""
        with self._ingest_lock:
            self.workers[shard_id].close()

    # ------------------------------------------------------------------
    # recovery plumbing
    # ------------------------------------------------------------------
    def _load_meta_locked(self, path: pathlib.Path) -> None:
        if not path.exists():
            wal_dir = path.parent / "wal"
            if wal_dir.is_dir() and any(wal_dir.glob("wal-*.jsonl")):
                raise RecoveryError(
                    f"{path.parent} holds the retired single-WAL layout "
                    f"(top-level wal/ with no meta.json); this build "
                    f"reads only the per-shard shard-NN/ layout — replay "
                    f"the old WAL offline to migrate it"
                )
            return
        meta = read_json(path, "coordinator meta", META_FORMAT)
        check_compat(meta, self.config, "meta")
        epoch = persisted_int(meta, "epoch")
        # Stage the raising decode, then commit in one non-raising
        # tail: a malformed published vector must not leave the epoch
        # advanced without its verdicts (REP008).
        published = np.asarray(
            cast("List[float]", meta["published"]), dtype=float
        )
        latest_verdicts = cast(Dict[str, object], meta["latest_verdicts"])
        self._epoch = epoch
        self._published = published
        self._latest_verdicts = latest_verdicts

    def _write_meta_locked(self) -> None:
        """Atomically persist the coordinator meta — the commit point."""
        assert self._meta_path is not None
        write_json(self._meta_path, {
            "format": META_FORMAT,
            "epoch": self._epoch,
            "total_events": sum(self._total_per_shard),
            "n": self.config.n,
            "num_shards": self.config.num_shards,
            "thresholds": thresholds_signature(self.config),
            "published": [float(v) for v in self._published],
            "latest_verdicts": self._latest_verdicts,
        })

    def _spawned_locked(self, shard_id: int,
                        status: Dict[str, object]) -> None:
        """Adopt a (re)started shard's ready status."""
        if status.get("epoch") != self._epoch:
            self.workers[shard_id].close()
            raise RecoveryError(
                f"shard {shard_id} recovered to epoch {status.get('epoch')}, "
                f"coordinator is at {self._epoch}"
            )
        self._accepted_per_shard[shard_id] = cast(
            int, status.get("epoch_events", 0)
        )
        self._total_per_shard[shard_id] = cast(
            int, status.get("total_events", 0)
        )
        # A fresh shard's op counters start from zero.
        self._ops_baselines[shard_id] = {}
        replayed = cast(int, status.get("replayed", 0))
        if replayed:
            self.metrics.ops.add("recovered_events", replayed)
        self.metrics.worker_restart_latency.observe(
            cast(float, status.get("restart_ms", 0.0)) / 1000.0
        )

    def _ensure_workers_alive_locked(self, shard_ids: Sequence[int]) -> None:
        """Restart dead shards; durable ones recover from their WAL,
        ephemeral ones restart with empty counters."""
        for shard_id in shard_ids:
            worker = self.workers[shard_id]
            if not worker.alive:
                self._spawned_locked(shard_id, worker.restart(self._epoch))
                self._restarts[shard_id] += 1
                self.metrics.ops.add("worker_restarts", 1)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def submit(self, ratings: Sequence[Rating]) -> int:
        """Accept a batch; returns the number accepted.

        A :class:`BackpressureError` rejection left no trace and can be
        retried verbatim; a :class:`~repro.errors.WorkerCrashError` is
        at-least-once (see the module docstring).
        """
        batch = list(ratings)
        if not batch:
            return 0
        started = time.perf_counter()
        with self._ingest_lock:
            if not self._started:
                raise ServiceError("service is not running — call start()")
            n = self.config.n
            per_shard: Dict[int, List[Rating]] = {}
            for event in batch:
                if not isinstance(event, Rating):
                    raise ServiceError(
                        f"submit() takes Rating events, got {type(event).__name__}"
                    )
                if event.rater >= n or event.target >= n:
                    raise UnknownNodeError(max(event.rater, event.target), n)
                per_shard.setdefault(
                    self.config.shard_of(event.target), []
                ).append(event)
            self._ensure_workers_alive_locked(sorted(per_shard))
            try:
                for shard_id in per_shard:
                    if not self.workers[shard_id].has_capacity():
                        raise BackpressureError(
                            shard_id, self.config.queue_capacity
                        )
            except BackpressureError:
                self.metrics.ops.add("ingest_rejected_batches", 1)
                self.metrics.ops.add("ingest_rejected_events", len(batch))
                raise
            # Count the sub-batches other shards accepted before one
            # crashed, then surface the crash (at-least-once).
            crash: Optional[WorkerCrashError] = None
            enqueued: List[int] = []
            for shard_id, sub_batch in per_shard.items():
                try:
                    self.workers[shard_id].enqueue(sub_batch)
                except WorkerCrashError as exc:
                    crash = exc
                    break
                enqueued.append(shard_id)
            acked = enqueued
            if self.config.durable:
                acked = []
                for shard_id in enqueued:
                    try:
                        self.workers[shard_id].wait_acks()
                    except WorkerCrashError as exc:
                        crash = crash or exc
                    else:
                        acked.append(shard_id)
                self.metrics.ops.add("wal_appends", len(acked))
            for shard_id in acked:
                self._accepted_per_shard[shard_id] += len(per_shard[shard_id])
                self._total_per_shard[shard_id] += len(per_shard[shard_id])
            if crash is not None:
                raise crash
            self.metrics.ops.add("ingest_batches", 1)
            self.metrics.ops.add("ingest_events", len(batch))
            self.metrics.ingest_latency.observe(time.perf_counter() - started)
            if (
                self.config.durable
                and self.config.snapshot_every > 0
                and sum(self._accepted_per_shard) - self._last_snapshot_events
                >= self.config.snapshot_every
            ):
                self._snapshot_locked()
        return len(batch)

    def submit_one(self, rater: int, target: int, value: int,
                   time_stamp: float = 0.0) -> None:
        """Convenience single-event ingest (validates via :class:`Rating`)."""
        self.submit([Rating(rater=rater, target=target, value=value,
                            time=time_stamp)])

    def drain(self) -> None:
        """Block until every accepted event has been applied.

        A barrier behind each shard's queued batches: after it returns,
        queries reflect all prior :meth:`submit` calls.
        """
        with self._ingest_lock:
            if not self._started:
                raise ServiceError("service is not running — call start()")
            self._fanout_locked("barrier")

    # ------------------------------------------------------------------
    # period orchestration
    # ------------------------------------------------------------------
    def _fanout_locked(self, name: str, *args: object) -> List[Any]:
        """Issue one command to every shard, then collect all replies.

        Issue-all-then-collect lets every shard drain its queue and run
        the command concurrently.  Dead shards are restarted *before*
        the command goes out, so ``peek``/``end_period``/``drain`` stay
        available after a crash.  Collection is best-effort: the first
        failure is re-raised once every live shard has replied, so no
        reply is left behind for the next interaction.
        """
        self._ensure_workers_alive_locked(range(self.config.num_shards))
        first_error: Optional[Exception] = None
        tokens: List[Any] = []
        for worker in self.workers:
            try:
                tokens.append(worker.start_call(name, *args))
            except WorkerCrashError as exc:
                tokens.append(None)
                first_error = first_error or exc
        replies: List[Any] = []
        for worker, token in zip(self.workers, tokens):
            if token is None:
                replies.append(None)
                continue
            try:
                replies.append(worker.finish_call(token))
            except ServiceError as exc:  # includes WorkerCrashError
                replies.append(None)
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return replies

    def _sum_locked(self, name: str) -> "npt.NDArray[np.float64]":
        """Sum every shard's reputation contribution: ``"reputation"``
        is the period gate, ``"cumulative"`` the published vector."""
        total = np.zeros(self.config.n, dtype=float)
        for contribution in self._fanout_locked(name):
            total += contribution
        return total

    def _evaluate_locked(self) -> DetectionReport:
        """Drain, build the global gate, screen, and join — no mutation."""
        gate = self._sum_locked("reputation")
        halves: List[HalfVerdict] = []
        pass_operations: Dict[str, int] = {}
        for shard_halves, ops_diff in self._fanout_locked("candidates", gate):
            halves.extend(shard_halves)
            for op_name, value in ops_diff.items():
                pass_operations[op_name] = pass_operations.get(op_name, 0) + value
        report = DetectionReport(
            method="service",
            examined_nodes=int((gate >= self.config.thresholds.t_r).sum()),
        )
        for pair in join_half_verdicts(halves):
            report.add(pair)
        report.operations = pass_operations
        return report

    def peek(self) -> EpochResult:
        """Evaluate the open epoch *without* closing it (nothing is
        reset, published, snapshotted or rotated)."""
        with self._ingest_lock:
            if not self._started:
                raise ServiceError("service is not running — call start()")
            report = self._evaluate_locked()
            return EpochResult(
                epoch=self._epoch,
                report=report,
                events=sum(self._accepted_per_shard),
                reputation=self._sum_locked("cumulative"),
            )

    def collusion_graph(self, edge_floor: float = 0.5) -> Dict[str, object]:
        """The open epoch's live :class:`~repro.rings.graph.SuspectGraph`
        and :class:`~repro.rings.detect.RingDetector` verdicts
        (read-only, like :meth:`peek`; serves ``GET /collusion-graph``)."""
        with self._ingest_lock:
            if not self._started:
                raise ServiceError("service is not running — call start()")
            gate = self._sum_locked("reputation")
            halves: List[HalfVerdict] = []
            pair_counts: List[PairCount] = []
            node_eff = np.zeros(self.config.n, dtype=np.int64)
            node_pos = np.zeros(self.config.n, dtype=np.int64)
            for reply in self._fanout_locked("graph", gate):
                shard_halves, shard_counts, shard_eff, shard_pos = reply
                halves.extend(shard_halves)
                pair_counts.extend(shard_counts)
                node_eff += shard_eff
                node_pos += shard_pos

            graph = SuspectGraph.build(
                self.config.n, self.config.thresholds, halves, pair_counts,
                gate, node_eff, node_pos, edge_floor=edge_floor,
            )
            report = RingDetector(self.config.thresholds).detect(graph)
            self.metrics.ops.add("collusion_graph_queries", 1)
            return {
                "schema_version": 1,
                "epoch": self._epoch,
                "events": sum(self._accepted_per_shard),
                "graph": graph.to_dict(),
                "pairs": [[p.low, p.high] for p in report.pairs],
                "groups": [g.to_dict() for g in report.groups],
            }

    def end_period(self) -> EpochResult:
        """Close the current epoch and publish its verdicts.

        Evaluate (gate, screens, join), publish and write ``meta.json``
        — the commit point — then tell every shard to reset, snapshot
        and rotate (see the module docstring).
        """
        started = time.perf_counter()
        with self._ingest_lock:
            if not self._started:
                raise ServiceError("service is not running — call start()")
            report = self._evaluate_locked()

            # Everything since the last close (ingest observes + the
            # screening pass) flows into the detector:* metrics.  Stage
            # the new baselines; a fan-out that raises mid-loop must
            # not leave half of them advanced (REP008).
            new_baselines: Dict[int, Dict[str, int]] = {}
            for shard_id, ops_now in enumerate(self._fanout_locked("ops")):
                baseline = self._ops_baselines[shard_id]
                self.metrics.merge_detector_ops({
                    name: value - baseline.get(name, 0)
                    for name, value in ops_now.items()
                    if value - baseline.get(name, 0)
                })
                new_baselines[shard_id] = ops_now

            result = EpochResult(
                epoch=self._epoch,
                report=report,
                events=sum(self._accepted_per_shard),
                reputation=self._sum_locked("cumulative"),
            )
            latest = result.to_dict()
            # Commit: one non-raising tail.
            for shard_id, ops in new_baselines.items():
                self._ops_baselines[shard_id] = ops
            self._published = result.reputation
            self._latest_verdicts = latest
            self._history.append(latest)
            self._epoch += 1
            self._accepted_per_shard = [0] * self.config.num_shards
            self._last_snapshot_events = 0
            self._last_close_error = None
            self.metrics.ops.add("periods_closed", 1)
            if len(report):
                self.metrics.ops.add("detections", len(report))
            if self._meta_path is not None:
                self._write_meta_locked()      # commit point
            # Past the commit point the close has happened and must
            # return its result, not an error a client would retry into
            # closing a second epoch.  A failing shard is restarted (it
            # recovers to the committed epoch itself) and the
            # degradation is surfaced via status()/metrics.
            try:
                self._fanout_locked("advance", self._epoch)
            except ServiceError as exc:
                self._last_close_error = f"epoch {self._epoch - 1}: {exc}"
                self.metrics.ops.add("end_period_degraded", 1)
                try:
                    self._ensure_workers_alive_locked(
                        range(self.config.num_shards)
                    )
                except ServiceError:
                    pass  # still dead — the next interaction retries
            if self.config.durable:
                self.metrics.ops.add("snapshots", self.config.num_shards)
            self.metrics.end_period_latency.observe(time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Force a consistent snapshot across coordinator + shards."""
        with self._ingest_lock:
            if not self.config.durable:
                raise ServiceError("snapshots need a data_dir (durable mode)")
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        """Per-shard snapshots (each a barrier behind its queued
        batches) + coordinator meta; caller holds the lock."""
        self._fanout_locked("snapshot")
        self._write_meta_locked()
        self._last_snapshot_events = sum(self._accepted_per_shard)
        self.metrics.ops.add("snapshots", self.config.num_shards)

    # ------------------------------------------------------------------
    # queries (consistent reads under the re-entrant ingest lock)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        with self._ingest_lock:
            return self._epoch

    @property
    def epoch_events(self) -> int:
        """Events accepted into the currently open epoch."""
        with self._ingest_lock:
            return sum(self._accepted_per_shard)

    @property
    def total_events(self) -> int:
        with self._ingest_lock:
            return sum(self._total_per_shard)

    def reputation_of(self, node: int, live: bool = False) -> float:
        """Published cumulative reputation of ``node``.

        ``live=True`` round-trips to the owning shard (a barrier behind
        its queue) instead of reading the last published value.
        """
        if not 0 <= node < self.config.n:
            raise UnknownNodeError(node, self.config.n)
        with self._ingest_lock:
            if not live:
                return float(self._published[node])
            shard_id = self.config.shard_of(node)
            self._ensure_workers_alive_locked([shard_id])
            return cast(float, self.workers[shard_id].call("cumulative_of", node))

    def suspects(self) -> Dict[str, object]:
        """Latest epoch's published verdicts (epoch ``-1`` = none yet)."""
        with self._ingest_lock:
            return dict(self._latest_verdicts)

    def history(self) -> List[Dict[str, object]]:
        """Verdicts of every epoch closed by this process, oldest first."""
        with self._ingest_lock:
            return list(self._history)

    def export_shard_states(self) -> List[Dict[str, object]]:
        """Every shard's exported detector + cumulative state
        (canonical-JSON comparable across transports)."""
        with self._ingest_lock:
            return self._fanout_locked("export")

    def epoch_wal_events(self) -> List[Rating]:
        """The open epoch's accepted events, re-read from shard WALs.

        The ``repro replay --verify`` instrument.  Order across shards
        is arbitrary; the batch cross-check only folds events into a
        commutative count matrix.
        """
        with self._ingest_lock:
            return [event for events in self._fanout_locked("wal_events")
                    for event in events]

    def status(self) -> Dict[str, object]:
        """Health document for ``GET /healthz``.

        No shard round-trips, so ``/healthz`` stays responsive even when
        every queue is saturated.  Thread shards report ``pid: null``.
        """
        with self._ingest_lock:
            return {
                "status": "ok" if self._started else "stopped",
                "mode": self.mode,
                "epoch": self._epoch,
                "epoch_events": sum(self._accepted_per_shard),
                "total_events": sum(self._total_per_shard),
                "shards": self.config.num_shards,
                "queue_depths": [w.queue_depth() for w in self.workers],
                "durable": self.config.durable,
                "last_close_error": self._last_close_error,
                "workers": [
                    {
                        "shard": worker.shard_id,
                        "pid": worker.pid,
                        "alive": worker.alive,
                        "queue_depth": worker.queue_depth(),
                        "epoch_events":
                            self._accepted_per_shard[worker.shard_id],
                        "restarts": self._restarts[worker.shard_id],
                        "restart_ms":
                            worker.ready_status.get("restart_ms", 0.0),
                    }
                    for worker in self.workers
                ],
            }
