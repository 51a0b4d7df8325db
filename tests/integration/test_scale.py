"""Scale sanity: the library behaves at sizes well beyond the paper's.

Marked slow; these protect the vectorized implementations from
accidentally re-introducing O(n^2) Python loops (the failure mode would
be a multi-minute test, caught by the suite timeout long before users
hit it).
"""

import time

import numpy as np
import pytest

from repro.core.online import OnlineCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix
from repro.reputation.eigentrust import EigenTrust, EigenTrustConfig

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


def big_matrix(n=1500, pairs=12, seed=0):
    rng = np.random.default_rng(seed)
    matrix = RatingMatrix(n)
    events = 40 * n
    raters = rng.integers(0, n, size=events)
    targets = rng.integers(0, n, size=events)
    keep = raters != targets
    values = np.where(rng.random(keep.sum()) < 0.8, 1, -1)
    matrix.add_events(raters[keep], targets[keep], values)
    for k in range(pairs):
        a, b = 2 * k, 2 * k + 1
        matrix.add(a, b, 1, count=80)
        matrix.add(b, a, 1, count=80)
        for c in rng.choice(np.arange(100, n), size=10, replace=False):
            matrix.add(int(c), a, -1, count=4)
            matrix.add(int(c), b, -1, count=4)
    return matrix


@pytest.mark.slow
class TestScale:
    def test_optimized_detector_at_1500_nodes(self):
        matrix = big_matrix()
        start = time.perf_counter()
        report = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
        elapsed = time.perf_counter() - start
        assert {(2 * k, 2 * k + 1) for k in range(12)} <= report.pair_set()
        assert elapsed < 30.0

    def test_eigentrust_at_1500_nodes(self):
        matrix = big_matrix()
        et = EigenTrust(EigenTrustConfig(alpha=0.1, epsilon=1e-6))
        start = time.perf_counter()
        trust = et.compute(matrix)
        elapsed = time.perf_counter() - start
        assert trust.sum() == pytest.approx(1.0)
        assert elapsed < 30.0

    def test_ledger_million_events(self):
        rng = np.random.default_rng(1)
        n = 2000
        events = 1_000_000
        raters = rng.integers(0, n, size=events)
        targets = rng.integers(0, n, size=events)
        keep = raters != targets
        values = rng.choice([-1, 1], size=int(keep.sum()))
        times = rng.uniform(0, 365, size=int(keep.sum()))
        ledger = RatingLedger(n)
        start = time.perf_counter()
        ledger.extend(raters[keep], targets[keep], values, times)
        matrix = ledger.to_matrix()
        _, _, counts = ledger.pair_frequency_table()
        elapsed = time.perf_counter() - start
        assert matrix.received_total().sum() == len(ledger)
        assert counts.sum() == len(ledger)
        assert elapsed < 30.0

    def test_online_detector_streaming_100k(self):
        n = 2000
        detector = OnlineCollusionDetector(n, THRESHOLDS)
        rng = np.random.default_rng(2)
        start = time.perf_counter()
        for _ in range(100_000):
            r = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            if r == t:
                continue
            detector.observe(r, t, 1 if rng.random() < 0.8 else -1)
        detector.observe(4, 5, 1, count=80)
        detector.observe(5, 4, 1, count=80)
        for c in range(100, 110):
            detector.observe(c, 4, -1, count=5)
            detector.observe(c, 5, -1, count=5)
        report = detector.end_period()
        elapsed = time.perf_counter() - start
        assert report.contains(4, 5)
        assert elapsed < 60.0
