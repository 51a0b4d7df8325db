"""Micro-benchmarks of the library's hot paths.

Not paper figures — these track the implementation's own performance
(ledger ingestion, JSONL trace loading, matrix aggregation, detector
passes, suspect-graph construction, EigenTrust iteration, Chord
routing) so optimization work has a baseline, per the project's HPC
guides ("no optimization without measuring").
"""

import pathlib
import tempfile
import time

import numpy as np
import pytest

from repro.bench.adapters import bench_main, merge_config
from repro.core.basic import BasicCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.dht.hashing import IdSpace
from repro.dht.ring import ChordRing
from repro.ratings.io import append_jsonl, load_jsonl
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix
from repro.reputation.eigentrust import EigenTrust, EigenTrustConfig
from repro.rings import SuspectGraph

N = 200
THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)

DEFAULT_CONFIG = {"n": N, "events": 20000, "seed": 0}


def run(config=None):
    """Harness entrypoint: one timed pass over every hot path.

    Returns per-component wall-clock seconds plus the two detectors'
    deterministic operation counts on the same planted matrix, so the
    perf trajectory tracks each hot path individually even though the
    suite runner only times the whole call.
    """
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    n, events, seed = cfg["n"], cfg["events"], cfg["seed"]
    raters, targets, values, times = make_workload(n=n, events=events,
                                                   seed=seed)
    components = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        components[name] = time.perf_counter() - start
        return out

    ledger = RatingLedger(n)
    timed("ledger_ingest", lambda: ledger.extend(raters, targets, values,
                                                 times))
    with tempfile.TemporaryDirectory() as scratch:
        trace = pathlib.Path(scratch) / "trace.jsonl"
        append_jsonl(trace, ledger)
        loaded = timed("jsonl_load", lambda: load_jsonl(trace, n=n))
    matrix = timed("ledger_to_matrix", ledger.to_matrix)
    for a, b in ((4, 5), (6, 7), (10, 11), (20, 21)):
        matrix.add(a, b, 1, count=60)
        matrix.add(b, a, 1, count=60)
        for c in range(30, 40):
            matrix.add(c, a, -1, count=4)
            matrix.add(c, b, -1, count=4)
    timed("matrix_aggregates",
          lambda: (matrix.received_total(), matrix.received_positive(),
                   matrix.reputation_sum()))
    basic = timed("basic_detector",
                  lambda: BasicCollusionDetector(THRESHOLDS).detect(matrix))
    optimized = timed(
        "optimized_detector",
        lambda: OptimizedCollusionDetector(THRESHOLDS).detect(matrix))
    graph = timed("suspect_graph",
                  lambda: SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS))
    trust = timed(
        "eigentrust_power_iteration",
        lambda: EigenTrust(EigenTrustConfig(
            alpha=0.1, pretrusted=frozenset({1, 2, 3}))).compute(matrix))
    planted = {(4, 5), (6, 7), (10, 11), (20, 21)}
    return {
        "kind": "micro",
        "components": components,
        "ops": {
            "basic_detector": basic.total_operations(),
            "optimized_detector": optimized.total_operations(),
            "total_operations": (basic.total_operations()
                                 + optimized.total_operations()),
        },
        "checks": {
            "detectors_agree_on_planted": (
                planted <= basic.pair_set()
                and planted <= optimized.pair_set()),
            "eigentrust_normalized": bool(abs(trust.sum() - 1.0) < 1e-9),
            "jsonl_round_trip": len(loaded) == len(ledger),
            "graph_pairs_match_detector": (
                set(graph.mutual_pairs()) == optimized.pair_set()),
        },
        "checks_pass": (planted <= basic.pair_set()
                        and planted <= optimized.pair_set()
                        and abs(trust.sum() - 1.0) < 1e-9
                        and len(loaded) == len(ledger)
                        and set(graph.mutual_pairs()) == optimized.pair_set()),
    }


def make_workload(n=N, events=20000, seed=0):
    rng = np.random.default_rng(seed)
    raters = rng.integers(0, n, size=events)
    targets = rng.integers(0, n, size=events)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(rng.random(raters.size) < 0.8, 1, -1)
    times = rng.uniform(0, 100, size=raters.size)
    return raters, targets, values, times


def make_matrix(seed=0):
    raters, targets, values, _ = make_workload(seed=seed)
    matrix = RatingMatrix(N)
    matrix.add_events(raters, targets, values)
    for a, b in ((4, 5), (6, 7), (10, 11), (20, 21)):
        matrix.add(a, b, 1, count=60)
        matrix.add(b, a, 1, count=60)
        for c in range(30, 40):
            matrix.add(c, a, -1, count=4)
            matrix.add(c, b, -1, count=4)
    return matrix


def test_ledger_bulk_ingestion(benchmark):
    raters, targets, values, times = make_workload()

    def ingest():
        ledger = RatingLedger(N)
        ledger.extend(raters, targets, values, times)
        return ledger

    ledger = benchmark(ingest)
    assert len(ledger) == len(raters)


def test_ledger_to_matrix(benchmark):
    raters, targets, values, times = make_workload()
    ledger = RatingLedger(N)
    ledger.extend(raters, targets, values, times)
    matrix = benchmark(ledger.to_matrix)
    assert matrix.received_total().sum() == len(ledger)


def test_matrix_aggregates(benchmark):
    matrix = make_matrix()

    def aggregates():
        return (matrix.received_total(), matrix.received_positive(),
                matrix.reputation_sum())

    total, positive, rep = benchmark(aggregates)
    assert total.shape == (N,)


def test_basic_detector_pass(benchmark):
    matrix = make_matrix()
    detector = BasicCollusionDetector(THRESHOLDS)
    report = benchmark(detector.detect, matrix)
    assert {(4, 5), (6, 7), (10, 11), (20, 21)} <= report.pair_set()


def test_optimized_detector_pass(benchmark):
    matrix = make_matrix()
    detector = OptimizedCollusionDetector(THRESHOLDS)
    report = benchmark(detector.detect, matrix)
    assert {(4, 5), (6, 7), (10, 11), (20, 21)} <= report.pair_set()


def test_eigentrust_power_iteration(benchmark):
    matrix = make_matrix()
    et = EigenTrust(EigenTrustConfig(alpha=0.1, pretrusted=frozenset({1, 2, 3})))
    trust = benchmark(et.compute, matrix)
    assert trust.sum() == pytest.approx(1.0)


def test_chord_lookup_throughput(benchmark):
    rng = np.random.default_rng(0)
    ring = ChordRing(IdSpace(16))
    for nid in rng.choice(2**16, size=128, replace=False):
        ring.join(int(nid))
    keys = [int(k) for k in rng.choice(2**16, size=500)]
    start = ring.node_ids[0]

    def lookups():
        return [ring.find_successor(k, start=start)[0] for k in keys]

    owners = benchmark(lookups)
    assert len(owners) == 500


def test_online_detector_ingestion(benchmark):
    """Streaming ingestion throughput (events/second)."""
    from repro.core.online import OnlineCollusionDetector

    raters, targets, values, _ = make_workload(events=5000)

    def ingest():
        detector = OnlineCollusionDetector(N, THRESHOLDS)
        for r, t, v in zip(raters, targets, values):
            detector.observe(int(r), int(t), int(v))
        return detector

    detector = benchmark(ingest)
    assert detector.events_this_period == len(raters)


def test_online_detector_end_period(benchmark):
    """Period-boundary screening cost (hot pairs only)."""
    from repro.core.online import OnlineCollusionDetector

    raters, targets, values, _ = make_workload()
    detector = OnlineCollusionDetector(N, THRESHOLDS)
    for r, t, v in zip(raters, targets, values):
        detector.observe(int(r), int(t), int(v))
    for a, b in ((4, 5), (6, 7)):
        detector.observe(a, b, 1, count=60)
        detector.observe(b, a, 1, count=60)
        for c in range(30, 38):
            detector.observe(c, a, -1, count=4)
            detector.observe(c, b, -1, count=4)

    report = benchmark.pedantic(
        lambda: detector.end_period(reset=False), rounds=50, iterations=1
    )
    assert {(4, 5), (6, 7)} <= report.pair_set()


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
