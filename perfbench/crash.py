"""The ``crash_restart`` workload: recovery of the durable process service.

Drives :class:`repro.service.ProcessDetectionService` in this process
through its public API.  Each cycle ingests one period's ratings (the
WAL tail), ``kill()``s the service, ``start()``s a new service object on
the same data dir (a crashed front-end keeps no memory) and times until
the first answered live query, checks that
``export_shard_states()`` is byte-identical to the state before the
kill, then closes the epoch and checks its verdicts against the batch
detector.  Closing every cycle keeps the replayed tail the same size.
The reference kernel of ``calibrate.py`` runs before the first cycle
and after each one; ingest, restart and close times are reported at the
reference host speed.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from perfbench import stats
from perfbench.calibrate import at_reference, kernel, speed_factor
from perfbench.common import (
    THRESHOLDS,
    WORKERS,
    Outcome,
    Pair,
    apply_span_layers,
    empty_layers,
    layer_table,
    oracle_pairs,
    replay_worker_layers,
    to_ratings,
)
from perfbench.harness import Workspace, peak_rss_mb
from perfbench.inputs import Events, Plan, batches, make_plan, period_events
from perfbench.trace import Tracer, self_times
from repro.ratings import io as ratings_io
from repro.service import ProcessDetectionService
from repro.service.config import ServiceConfig
from repro.service.snapshot import SnapshotStore
from repro.service.wal import WriteAheadLog
from repro.service.worker import ProcessShardWorker, shard_data_dir


@dataclass(frozen=True)
class CrashScale:
    n: int
    background: int
    pairs: int
    #: cycles whose ratings set-up generates (more are made on demand)
    cycles: int
    setups: int = 5


SCALES: Dict[str, CrashScale] = {
    "full": CrashScale(n=200, background=1850, pairs=2, cycles=150, setups=9),
    "tiny": CrashScale(n=60, background=200, pairs=1, cycles=20, setups=1),
}


#: Ratings per ``submit``: large, so a cycle's ingest time is the WAL
#: append and apply work, not the pipe round trip of each call.
SUBMIT_BATCH = 500


def _canonical(states: List[Dict[str, object]]) -> str:
    return json.dumps(states, sort_keys=True)


class Cycles:
    """One service and its data dir, cycled through kill and restart."""

    def __init__(self, scale: CrashScale, plan: Plan, seed: int,
                 inputs: List[Events], data_dir: pathlib.Path) -> None:
        self.scale = scale
        self.plan = plan
        self.seed = seed
        self.config = ServiceConfig(n=scale.n, num_shards=WORKERS,
                                    thresholds=THRESHOLDS, data_dir=data_dir)
        self.service = ProcessDetectionService(self.config).start()
        self.inputs = inputs
        self.ingest_events = 0
        self.ingest_s: List[float] = []
        self.restart_ms: List[float] = []
        self.close_ms: List[float] = []
        self.worker_restart_ms: List[float] = []
        self.kernel_s: List[float] = []
        self.replayed: List[int] = []
        self.mismatches: List[str] = []
        #: each cycle's epoch verdicts, as the service published them
        self.served: List[Set[Pair]] = []
        self.checks = 0
        self.requests = 0
        self.peak_rss_mb = 0.0
        self.tracer: Optional[Tracer] = None

    def _recovery_layers(self) -> None:
        """Time what each restarting worker will read, from this process:
        its latest snapshot and the WAL tail after it."""
        assert self.tracer is not None
        tracer = self.tracer
        mark = tracer.patches()
        tracer.tally(ratings_io, "decode_jsonl", "io.decode")
        try:
            for shard_id in range(WORKERS):
                base = shard_data_dir(pathlib.Path(str(self.config.data_dir)), shard_id)
                store = SnapshotStore(base / "snapshots", keep=self.config.keep_snapshots)
                state: Dict[str, Any] = tracer.record("snapshot.load", store.load_latest) or {}
                epoch, skip = int(state.get("epoch", 0)), int(state.get("wal_applied", 0))
                wal = WriteAheadLog(base / "wal")
                tracer.record("wal.replay", lambda w=wal, e=epoch, s=skip:
                              list(w.replay(e, skip=s, n=self.scale.n)))
        finally:
            tracer.unwrap(mark)

    def cycle(self, index: int) -> None:
        service = self.service
        if index == len(self.inputs):
            self.inputs.append(period_events(self.plan, self.seed, index))
        events = self.inputs[index]
        started = time.perf_counter()
        for batch in batches(events, SUBMIT_BATCH):
            self.requests += 1
            service.submit(to_ratings(batch))
        service.drain()
        self.ingest_s.append(time.perf_counter() - started)
        self.ingest_events += events[0].size
        before = _canonical(service.export_shard_states())

        service.kill()
        if self.tracer is not None:
            self._recovery_layers()
        node = int(events[1][0])
        # A crashed front-end loses its in-memory state: recovery starts a
        # new service object over the same data dir.
        started = time.perf_counter()
        service = self.service = ProcessDetectionService(self.config).start()
        service.reputation_of(node, live=True)
        self.restart_ms.append(1000.0 * (time.perf_counter() - started))
        self.requests += 2
        for worker in service.workers:
            status: Dict[str, Any] = worker.ready_status
            self.worker_restart_ms.append(float(status.get("restart_ms", 0.0)))
            self.replayed.append(int(status.get("replayed", 0)))

        self.checks += 1
        if _canonical(service.export_shard_states()) != before:
            self.mismatches.append(f"cycle {index}: shard state changed across restart")

        started = time.perf_counter()
        result = service.end_period()
        self.close_ms.append(1000.0 * (time.perf_counter() - started))
        self.requests += 1
        self.checks += 1
        self.served.append(set(result.report.pair_set()))
        expected = oracle_pairs(self.scale.n, events)
        if self.served[-1] != expected:
            self.mismatches.append(
                f"cycle {index}: epoch verdicts {sorted(result.report.pair_set())} "
                f"!= batch {sorted(expected)}")
        self.kernel_s.append(kernel())

    def rss_mb(self) -> float:
        pids = [os.getpid()] + [w.pid for w in self.service.workers if w.pid]
        return peak_rss_mb(pids)

    def close(self) -> None:
        self.service.kill()


def _setup(scale: CrashScale, seed: int, ws: Workspace) -> Tuple[float, Cycles]:
    started = time.perf_counter()
    plan = make_plan(seed, scale.n, scale.background, scale.pairs)
    inputs = [period_events(plan, seed, index) for index in range(scale.cycles)]
    cycles = Cycles(scale, plan, seed, inputs, ws.mkdtemp("data-"))
    return time.perf_counter() - started, cycles


def _pass(scale: CrashScale, seed: int, seconds: float, ws: Workspace,
          setups: int, tracer: Optional[Tracer]) -> Tuple[List[float], Cycles]:
    """Set up ``setups`` times (keeping the last), then cycle until
    ``seconds`` are up; returns the set-up times at reference speed."""
    setup_times = []
    kernel_s = [kernel()]
    cycles: Optional[Cycles] = None
    for attempt in range(setups):
        elapsed, cycles = _setup(scale, seed, ws)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            cycles.service.stop(snapshot=False)
        kernel_s.append(kernel())
    assert cycles is not None
    cycles.tracer = tracer
    cycles.kernel_s.append(kernel())
    try:
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or index < 2 * stats.MIN_BEYOND:
            cycles.cycle(index)
            index += 1
        cycles.peak_rss_mb = cycles.rss_mb()
    finally:
        cycles.close()
    # set-up times at the reference host speed (calibrate.py)
    return at_reference(setup_times, kernel_s), cycles


def _summary(setup_times: List[float], cycles: Cycles) -> Tuple[Dict[str, float],
                                                                 Dict[str, Any]]:
    # CPU-bound times, at the reference host speed (calibrate.py)
    ingest_s = at_reference(cycles.ingest_s, cycles.kernel_s)
    restart_ms = at_reference(cycles.restart_ms, cycles.kernel_s)
    close_ms = at_reference(cycles.close_ms, cycles.kernel_s)
    metrics = {
        # the median of a few set-ups, as the benchmark's set-up time is defined
        "setup_s": statistics.median(setup_times),
        "ingest_eps": cycles.ingest_events / sum(ingest_s),
        "op_p50_ms": stats.median(restart_ms),
        "close_p50_ms": stats.median(close_ms),
        "peak_rss_mb": cycles.peak_rss_mb,
    }
    detail = {
        "cycles": len(cycles.restart_ms),
        "speed_factor": speed_factor(cycles.kernel_s),
        "raw_restart_ms": stats.summarize(cycles.restart_ms),
        "raw_close_ms": stats.summarize(cycles.close_ms),
        "raw_ingest_s": stats.summarize(cycles.ingest_s),
        "worker_recover_ms": stats.summarize(cycles.worker_restart_ms),
        "replayed_events_per_worker": stats.summarize([float(v) for v in cycles.replayed]),
        "setup_times_s": setup_times,
        "mismatches": cycles.mismatches[:10],
    }
    return metrics, detail


def run(seed: int, seconds: float, trace: bool, size: str, ws: Workspace) -> Outcome:
    scale = SCALES[size]
    if not trace:
        setup_times, cycles = _pass(scale, seed, seconds, ws, scale.setups, None)
        metrics, detail = _summary(setup_times, cycles)
        return Outcome(metrics, cycles.requests + cycles.checks,
                       len(cycles.mismatches), not cycles.mismatches, detail)

    plain_setup, plain = _pass(scale, seed, seconds / 2, ws, 1, None)
    plain_metrics, _ = _summary(plain_setup, plain)
    tracer = Tracer()
    tracer.wrap(ProcessDetectionService, "submit", "process.submit")
    tracer.wrap(ProcessDetectionService, "end_period", "process.end_period")
    tracer.wrap(ProcessDetectionService, "start", "process.start")
    tracer.wrap(ProcessShardWorker, "wait_acks", "process.ack_wait")
    tracer.wrap(ProcessShardWorker, "finish_call", "worker.call")
    try:
        traced_setup, traced = _pass(scale, seed, seconds / 2, ws, 1, tracer)
    finally:
        tracer.unwrap()
    traced_metrics, traced_detail = _summary(traced_setup, traced)
    spans = self_times(tracer.spans)
    layers = empty_layers()
    apply_span_layers(layers, spans, {k: list(v) for k, v in tracer.tallies.items()})
    layers["worker.restarts"] = float(len(traced.restart_ms) * WORKERS)
    layers["wal.replayed_events"] = stats.mean([float(v) for v in traced.replayed])
    layers["io.events"] /= len(traced.restart_ms)

    worker_tracer = Tracer()
    config = ServiceConfig(n=scale.n, num_shards=WORKERS, thresholds=THRESHOLDS)
    replayed = replay_worker_layers(worker_tracer, config,
                                    [list(batches(t, SUBMIT_BATCH))
                                     for t in traced.inputs[:len(traced.restart_ms)]],
                                    ws.mkdtemp("replay-"))
    worker_spans = self_times(worker_tracer.spans)
    apply_span_layers(layers, worker_spans,
                      {k: list(v) for k, v in worker_tracer.tallies.items()})
    layers["wal.bytes"] = float(replayed["wal_bytes"])
    layers["snapshot.bytes"] = float(replayed["snapshot_bytes"])
    traced.checks += 1
    if replayed["verdicts"] != traced.served:
        traced.mismatches.append("replayed worker verdicts differ from the served ones")
    layers["trace.overhead_frac"] = (traced_metrics["op_p50_ms"]
                                     / plain_metrics["op_p50_ms"] - 1.0)
    restart_layer_ms = sum(layers[k] for k in ("snapshot.load_ms", "wal.replay_ms"))
    # Workers recover in parallel, so one worker's snapshot load plus
    # WAL replay is the layer share of one restart.
    layers["trace.coverage_frac"] = restart_layer_ms / traced_metrics["op_p50_ms"]
    detail = {
        "untraced": plain_metrics, "traced": traced_metrics,
        "traced_detail": traced_detail,
        "front_end_layers": layer_table(spans, len(traced.restart_ms)),
        "worker_layers_replayed": layer_table(worker_spans, len(traced.restart_ms)),
    }
    mismatches = plain.mismatches + traced.mismatches
    return Outcome(layers,
                   plain.requests + plain.checks + traced.requests + traced.checks,
                   len(mismatches), not mismatches, detail)
