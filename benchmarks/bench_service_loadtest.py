"""Staged service load test: single- vs multi-process, knee, p99.

Not a paper figure — this measures the deployable subsystem under
*offered load* the way operators will run it (docs/OPERATIONS.md):

1. Closed-loop maximum throughput for the thread-transport service and
   the process-transport service on the same planted workload — the
   ``parallel_speedup`` ratio, repeated ``SPEEDUP_TRIALS`` times and
   reported as a median with its interquartile range.
2. An open-loop QPS ladder against the process service: per-stage
   achieved rate, submit-latency p50/p95/p99, backpressure rejections,
   and the saturation knee (the highest offered rate still absorbed;
   see ``repro.bench.loadgen``).
3. The p99 submit latency at one fixed, below-knee QPS — the number a
   capacity plan quotes.
4. An equivalence leg: the verdicts the process service publishes for
   the ingested stream must exactly match the batch
   ``OptimizedCollusionDetector`` on the same rating matrix.
5. A restart leg, once per durable state engine (``json`` snapshots
   vs ``mmap`` state images): ingest, stop at an epoch boundary,
   restart, and record per-worker ``restart_ms``.  Both engines must
   come back byte-identical with zero WAL events replayed — the mmap
   engine maps the last committed image in O(1) instead of parsing a
   JSON snapshot, and ``restart_speedup`` records the measured ratio.

``parallel_speedup`` is a reported metric, never a check: one closed
loop lasts tens of milliseconds, so whether processes beat threads in a
given run is noise on a small host (a 2-core host saw 0.89, 1.51 and
1.15 on three reruns).  No check compares wall-clock numbers.

``ops`` stays null: rejection counts depend on wall-clock timing, so
there is no deterministic operation count to gate at 0%% regression.
"""

import json
import os
import tempfile

from repro.bench.adapters import bench_main, merge_config
from repro.bench.loadgen import (StageSpec, find_knee, make_workload,
                                 percentile, run_stages)
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.ratings.matrix import RatingMatrix
from repro.service import (DetectionService, ProcessDetectionService,
                           ServiceConfig)

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)

#: Closed-loop thread/process pairs behind the ``parallel_speedup`` median.
SPEEDUP_TRIALS = 5

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {
    "n": 80,
    "workers": 2,
    "events_per_stage": 2000,
    "batch": 100,
    "warmup": 400,
    "open_rates": [2000.0],
    "fixed_qps": 2000.0,
    "seed": 0,
}

DEFAULT_CONFIG = {
    "n": 200,
    "workers": 2,
    "events_per_stage": 20000,
    "batch": 200,
    "warmup": 2000,
    "open_rates": [5000.0, 20000.0, 80000.0],
    "fixed_qps": 5000.0,
    "seed": 0,
}


def _service_config(n, shards):
    return ServiceConfig(n=n, num_shards=shards, thresholds=THRESHOLDS,
                         queue_capacity=4096)


def _closed_loop_qps(service, workload, cfg):
    """Max sustained throughput: one closed-loop stage, drained."""
    try:
        results = run_stages(
            service, workload,
            [StageSpec(offered_qps=None, events=cfg["events_per_stage"],
                       batch=cfg["batch"])],
            warmup=cfg["warmup"],
        )
    finally:
        service.stop()
    return results[0]


def _open_ladder(service, workload, cfg):
    """Open-loop QPS ladder ending in a closed-loop ceiling stage."""
    stages = [StageSpec(offered_qps=rate, events=cfg["events_per_stage"],
                        batch=cfg["batch"]) for rate in cfg["open_rates"]]
    stages.append(StageSpec(offered_qps=None,
                            events=cfg["events_per_stage"],
                            batch=cfg["batch"]))
    try:
        return run_stages(service, workload, stages, warmup=cfg["warmup"])
    finally:
        service.stop()


def _equivalence(cfg, workload):
    """Process-service verdicts must equal the batch detector's."""
    events = workload[:cfg["events_per_stage"]]
    service = ProcessDetectionService(
        _service_config(cfg["n"], cfg["workers"])
    ).start()
    try:
        for i in range(0, len(events), cfg["batch"]):
            service.submit(events[i:i + cfg["batch"]])
        served = service.end_period().report.pair_set()
    finally:
        service.stop()
    matrix = RatingMatrix(cfg["n"])
    for event in events:
        matrix.add(event.rater, event.target, event.value)
    batch = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
    return served, batch.pair_set()


def _restart_leg(cfg, workload, backend):
    """Durable ingest -> stop at the epoch boundary -> restart.

    With zero WAL tail to replay, ``restart_ms`` isolates the state
    rehydration cost: JSON snapshot parsing vs O(1) image mapping.
    """
    events = workload[:cfg["events_per_stage"]]
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            n=cfg["n"], num_shards=cfg["workers"], thresholds=THRESHOLDS,
            queue_capacity=4096, data_dir=os.path.join(tmp, "svc"),
            matrix_backend=backend,
        )
        service = ProcessDetectionService(config).start()
        for i in range(0, len(events), cfg["batch"]):
            service.submit(events[i:i + cfg["batch"]])
        before = json.dumps(service.export_shard_states(), sort_keys=True)
        service.stop()

        revived = ProcessDetectionService(config).start()
        try:
            restart_ms = [entry["restart_ms"]
                          for entry in revived.status()["workers"]]
            replayed = revived.metrics.ops.get("recovered_events")
            identical = (json.dumps(revived.export_shard_states(),
                                    sort_keys=True) == before)
        finally:
            revived.stop()
    return {
        "state_engine": backend,
        "restart_ms_per_worker": restart_ms,
        "restart_ms_max": max(restart_ms),
        "wal_events_replayed": replayed,
        "states_identical_after_restart": identical,
    }


def run(config=None):
    """Harness entrypoint — see the module docstring for the legs."""
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    cores = len(os.sched_getaffinity(0))
    workload = make_workload(cfg["n"], cfg["events_per_stage"],
                             seed=cfg["seed"])

    speedups = []
    for _ in range(SPEEDUP_TRIALS):
        single = _closed_loop_qps(
            DetectionService(
                _service_config(cfg["n"], cfg["workers"])).start(),
            workload, cfg)
        multi = _closed_loop_qps(
            ProcessDetectionService(
                _service_config(cfg["n"], cfg["workers"])).start(),
            workload, cfg)
        speedups.append(multi.achieved_qps / single.achieved_qps
                        if single.achieved_qps else float("inf"))

    ladder = _open_ladder(
        ProcessDetectionService(
            _service_config(cfg["n"], cfg["workers"])).start(),
        workload, cfg)
    knee = find_knee(ladder)
    fixed = next((r for r in ladder if r.offered_qps == cfg["fixed_qps"]),
                 None)

    served_pairs, batch_pairs = _equivalence(cfg, workload)

    # dense durable workers persist JSON snapshots; mmap workers
    # publish binary state images and map them back on restart.
    restarts = [_restart_leg(cfg, workload, backend)
                for backend in ("dense", "mmap")]
    by_engine = {leg["state_engine"]: leg for leg in restarts}

    checks = {
        "verdicts_match_batch": served_pairs == batch_pairs,
        "fixed_qps_stage_present": fixed is not None,
        "no_rejects_at_fixed_qps": (fixed is not None
                                    and fixed.events_rejected == 0),
        "restart_replays_no_wal": all(
            leg["wal_events_replayed"] == 0 for leg in restarts),
        "restart_states_identical": all(
            leg["states_identical_after_restart"] for leg in restarts),
    }
    return {
        "kind": "service-loadtest",
        "cores": cores,
        "workers": cfg["workers"],
        "single_process": single.to_dict(),
        "multi_process": multi.to_dict(),
        "parallel_speedup": percentile(speedups, 50),
        "parallel_speedup_iqr": (percentile(speedups, 75)
                                 - percentile(speedups, 25)),
        "parallel_speedup_trials": speedups,
        "open_ladder": [r.to_dict() for r in ladder],
        "knee_qps": None if knee is None else knee.offered_qps,
        "knee_p99_ms": None if knee is None else knee.latency_ms_p99,
        "fixed_qps": cfg["fixed_qps"],
        "p99_ms_at_fixed_qps": (None if fixed is None
                                else fixed.latency_ms_p99),
        "restart_legs": restarts,
        "restart_speedup": (by_engine["dense"]["restart_ms_max"]
                            / max(by_engine["mmap"]["restart_ms_max"], 1e-9)),
        "verdict_pairs": sorted(served_pairs),
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
