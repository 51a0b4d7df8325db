"""Service ingest benchmarks: shard scaling and period-close latency.

Not paper figures — these measure the deployable subsystem
(`repro.service`) the way `bench_micro_components.py` measures the
library hot paths: 1-shard vs 4-shard ingest throughput for the same
event stream, and the cost of the end-of-period merge (drain, global
gate, half-verdict join, publish).  Results are archived under
``benchmarks/results/service-ingest.txt``.

The workload plants colluding pairs so the period close does real
screening work, and the ingest path runs ephemeral (no WAL) so the
numbers isolate queueing + detector updates from disk.
"""

import pathlib
import time

import numpy as np

from repro.bench.adapters import bench_main, merge_config
from repro.core.thresholds import DetectionThresholds
from repro.ratings.events import Rating
from repro.service import DetectionService, ServiceConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N = 200
EVENTS = 20000
BATCH = 200
THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {"events": 4000, "shards": 2, "seed": 0}

PLANTED_PAIRS = ((4, 5), (6, 7), (10, 11), (20, 21))

_RESULTS = {}


def make_batches(seed=0, n=N, events=EVENTS, batch=BATCH):
    rng = np.random.default_rng(seed)
    raters = rng.integers(0, n, size=events)
    targets = rng.integers(0, n, size=events)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(rng.random(raters.size) < 0.8, 1, -1)
    out = [Rating(int(r), int(t), int(v), time=float(i))
           for i, (r, t, v) in enumerate(zip(raters, targets, values))]
    for a, b in PLANTED_PAIRS:
        out.extend([Rating(a, b, 1), Rating(b, a, 1)] * 60)
        for critic in range(30, 40):
            out.extend([Rating(critic, a, -1), Rating(critic, b, -1)] * 4)
    return [out[i:i + batch] for i in range(0, len(out), batch)]


def ingest_all(shards, batches, n=N):
    service = DetectionService(ServiceConfig(
        n=n, num_shards=shards, thresholds=THRESHOLDS,
        queue_capacity=4096,
    )).start()
    for batch in batches:
        service.submit(batch)
    service.drain()
    return service


DEFAULT_CONFIG = {"n": N, "events": EVENTS, "batch": BATCH, "shards": 4,
                  "seed": 0}


def run(config=None):
    """Harness entrypoint: ingest throughput + period-close latency.

    One ephemeral (no WAL) service instance per call: submit the whole
    planted workload, drain the shards, then close the epoch.  Returns
    events/second for the ingest leg, milliseconds for the close, and a
    check that the period verdict is exactly the planted pair set.
    """
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    batches = make_batches(seed=cfg["seed"], n=cfg["n"],
                           events=cfg["events"], batch=cfg["batch"])
    total = sum(len(b) for b in batches)
    start = time.perf_counter()
    service = ingest_all(cfg["shards"], batches, n=cfg["n"])
    ingest_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        result = service.end_period()
        close_s = time.perf_counter() - start
    finally:
        service.stop()
    pairs_ok = result.report.pair_set() == set(PLANTED_PAIRS)
    return {
        "kind": "service",
        "events": total,
        "shards": cfg["shards"],
        "events_per_sec": total / ingest_s if ingest_s else float("inf"),
        "ingest_s": ingest_s,
        "end_period_ms": close_s * 1e3,
        "checks": {"planted_pairs_detected": pairs_ok},
        "checks_pass": pairs_ok,
    }


def _bench_ingest(benchmark, shards):
    batches = make_batches()
    total = sum(len(b) for b in batches)

    def run():
        service = ingest_all(shards, batches)
        service.stop()
        return service

    service = benchmark(run)
    rate = total / benchmark.stats.stats.mean
    _RESULTS[f"ingest_{shards}_shard"] = (total, rate)
    assert service.total_events == total


def test_ingest_throughput_1_shard(benchmark):
    _bench_ingest(benchmark, shards=1)


def test_ingest_throughput_4_shards(benchmark):
    _bench_ingest(benchmark, shards=4)


def test_end_period_merge_latency(benchmark):
    batches = make_batches()

    def setup():
        return (ingest_all(4, batches),), {}

    def close(service):
        result = service.end_period()
        service.stop()
        return result

    result = benchmark.pedantic(close, setup=setup, rounds=3, iterations=1)
    _RESULTS["end_period_4_shards"] = benchmark.stats.stats.mean
    assert result.report.pair_set() == {(4, 5), (6, 7), (10, 11), (20, 21)}

    lines = [
        "== service-ingest: sharded ingestion throughput ==",
        f"workload: {sum(len(b) for b in batches)} events "
        f"in batches of {BATCH}, n={N}, ephemeral (no WAL)",
        "",
        "config        events    events/sec",
        "----------    ------    ----------",
    ]
    for key, label in (("ingest_1_shard", "1 shard "),
                       ("ingest_4_shard", "4 shards")):
        if key in _RESULTS:
            total, rate = _RESULTS[key]
            lines.append(f"{label}      {total:6d}    {rate:10.0f}")
    merge_ms = _RESULTS["end_period_4_shards"] * 1e3
    lines += [
        "",
        f"end_period merge latency (4 shards, drain + gate + join + "
        f"publish): {merge_ms:.1f} ms",
        "",
        "note: detector updates are pure Python, so on CPython the GIL",
        "serializes shard workers -- sharding buys partition isolation and",
        "bounded per-shard queues, not CPU parallelism.  Throughput parity",
        "between 1 and 4 shards (rather than a slowdown) is the win here.",
        "",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    (RESULTS_DIR / "service-ingest.txt").write_text(text + "\n")


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
