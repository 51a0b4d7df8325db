"""Compressed-row rating matrix: memory and wall-clock scaling.

The paper's complexity argument (Propositions 4.1/4.2) is about
*operations*; this bench measures the other wall the reproduction hits
first — **memory**.  :class:`RatingMatrix` stores O(E) compressed sparse
rows (one ``indptr`` and four flat ``int64`` columns) for E distinct
(target, rater) edges, where three ``int64`` ``(n, n)`` planes would
take 24·n² bytes (~240 GB at n=100 000).  Real rating graphs are sparse
(a node rates a bounded number of peers per period), so at a fixed
per-node edge density the footprint grows linearly in n: at the full
tier's 12 edges per node the traced peak of build + detect is ≈2.4,
≈12 and ≈119 MB at n = 2 000, 10 000 and 100 000, and one trial takes
≈0.4 s on a 2-core host.

For each size the bench builds the same planted-collusion workload,
runs the optimized detector, and records:

* wall-clock per phase (build + detect),
* peak traced memory over both phases (``tracemalloc``; ``ru_maxrss``
  is also recorded but is process-monotonic),
* the detector's nominal operation totals (deterministic, gated by
  ``repro bench compare --metric ops``).

Checks: the largest size must finish inside the memory budget, and the
detector must flag exactly the planted pairs there.
"""

import resource
import time
import tracemalloc

import numpy as np

from repro.bench.adapters import bench_main, merge_config
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.ratings.matrix import RatingMatrix

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {"sizes": [300, 600, 1200], "edges_per_node": 12,
                "memory_budget_mb": 16, "seed": 0}

DEFAULT_CONFIG = {"sizes": [2_000, 10_000, 100_000], "edges_per_node": 12,
                  "memory_budget_mb": 512, "seed": 0}

THRESHOLDS = DetectionThresholds(t_r=5.0, t_a=0.85, t_b=0.6, t_n=10)

#: Colluding pairs planted into every workload; each partner boosts the
#: other 3·T_N times, far above what the 50/50 background noise can
#: push the Formula (2) band around, while one light critic keeps the
#: pair robustly inside the band — so the screen flags every pair.
PLANTED_PAIRS = ((1, 2), (5, 9))
BOOST_COUNT = 30
CRITICS = range(30, 31)
CRITIC_NEGATIVES = 6


def make_events(n, edges_per_node, seed):
    """Random background edges + the planted collusion cluster."""
    rng = np.random.default_rng(seed)
    m = n * edges_per_node
    raters = rng.integers(0, n, size=m)
    targets = rng.integers(0, n, size=m)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(rng.random(raters.size) < 0.5, 1, -1).astype(np.int64)

    extra_r, extra_t, extra_v = [], [], []
    for a, b in PLANTED_PAIRS:
        extra_r += [a] * BOOST_COUNT + [b] * BOOST_COUNT
        extra_t += [b] * BOOST_COUNT + [a] * BOOST_COUNT
        extra_v += [1] * (2 * BOOST_COUNT)
        for critic in CRITICS:
            extra_r += [critic] * (2 * CRITIC_NEGATIVES)
            extra_t += [a, b] * CRITIC_NEGATIVES
            extra_v += [-1] * (2 * CRITIC_NEGATIVES)
    return (np.concatenate([raters, np.array(extra_r, dtype=np.int64)]),
            np.concatenate([targets, np.array(extra_t, dtype=np.int64)]),
            np.concatenate([values, np.array(extra_v, dtype=np.int64)]))


def build_and_detect(n, events):
    """Build + detect once; return timings, peak, report."""
    raters, targets, values = events
    tracemalloc.start()
    try:
        start = time.perf_counter()
        matrix = RatingMatrix(n)
        matrix.add_events(raters, targets, values)
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        report = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
        detect_s = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "build_s": build_s,
        "detect_s": detect_s,
        "peak_traced_bytes": int(peak),
        "pairs": sorted([p.low, p.high] for p in report.pairs),
        "ops_total": int(report.total_operations()),
    }


def run(config=None):
    """Harness entrypoint: the compressed-row scaling ladder.

    Returns one series entry per size with its timings, peak traced
    memory and nominal op totals.
    """
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    sizes = [int(n) for n in cfg["sizes"]]
    budget = int(cfg["memory_budget_mb"]) * 1024 * 1024

    series = []
    for n in sizes:
        events = make_events(n, int(cfg["edges_per_node"]), int(cfg["seed"]))
        series.append({"n": n, "events": int(events[0].size),
                       **build_and_detect(n, events)})

    largest = series[-1]
    planted = sorted(sorted(p) for p in PLANTED_PAIRS)
    checks = {
        "within_budget_at_max":
            largest["peak_traced_bytes"] <= budget,
        "planted_pairs_detected_at_max": largest["pairs"] == planted,
    }
    return {
        "kind": "scaling",
        "title": "compressed-row matrix scaling",
        "series": series,
        "ops": {"total_operations": sum(e["ops_total"] for e in series)},
        "memory": {
            "unit": "bytes",
            "budget_bytes": budget,
            "per_size": [{"n": e["n"], "peak": e["peak_traced_bytes"]}
                         for e in series],
            "ru_maxrss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        },
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run, SMOKE_CONFIG))
