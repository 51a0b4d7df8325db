"""Property suite for the pair-incremental streaming screen.

Randomized interleavings of ``observe`` / ``end_period`` /
``export_state``/``restore_state`` (and the binary
``export_arrays``-image roundtrip) must produce ``DetectionReport``s
byte-identical to an :class:`OptimizedCollusionDetector` batch run over
the same window.

At every evaluation, :meth:`OnlineCollusionDetector.full_screen` on a
state-identical copy must return the same half-verdicts as the
incremental ``period_candidates()``: the full re-screen is the
incremental screen's reference.

Also pins the bit-equality of the detector's scalar screen replica
against the vectorized Formula-(2) screen: the incremental screen is
only report-safe because both evaluate the identical IEEE expression.
"""

import copy
import dataclasses
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formula import formula2_screen
from repro.core.model import PairEvidence
from repro.core.online import OnlineCollusionDetector, _screen_scalar
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.ratings.matrix import RatingMatrix
from repro.service.snapshot import map_image, write_image
from repro.util.counters import OpCounter

N = 12
THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=12)


def _floats_equal(x, y):
    return (math.isnan(x) and math.isnan(y)) or x == y


def _evidence_equal(a, b):
    """Field-wise PairEvidence equality, nan-aware (``a``/``b`` are nan
    when a denominator is zero, and nan != nan under dataclass eq)."""
    if a is None or b is None:
        return a is b
    for field in dataclasses.fields(PairEvidence):
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        if isinstance(va, float):
            if not _floats_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def assert_halves_identical(actual, expected):
    assert [(h.target, h.rater) for h in actual] == \
        [(h.target, h.rater) for h in expected]
    for got, want in zip(actual, expected):
        assert _evidence_equal(got.evidence, want.evidence), \
            (got.target, got.rater)


def assert_reports_identical(actual, expected):
    assert actual.examined_nodes == expected.examined_nodes
    got = {(p.low, p.high): p for p in actual.pairs}
    want = {(p.low, p.high): p for p in expected.pairs}
    assert got.keys() == want.keys()
    for key, pair in got.items():
        other = want[key]
        assert _evidence_equal(pair.evidence_low_to_high,
                               other.evidence_low_to_high), key
        assert _evidence_equal(pair.evidence_high_to_low,
                               other.evidence_high_to_low), key


@st.composite
def interleavings(draw):
    """Action scripts: mostly observes, with bursts that actually push
    pairs over ``t_n`` so the screen has something to flip, interleaved
    with period closes, peeks and both state-roundtrip flavours."""
    ops = []
    kinds = (["observe"] * 10 + ["burst"] * 3
             + ["end_period", "peek", "roundtrip", "image"])
    for _ in range(draw(st.integers(1, 50))):
        kind = draw(st.sampled_from(kinds))
        if kind == "observe":
            ops.append(("observe",
                        draw(st.integers(0, N - 1)),
                        draw(st.integers(0, N - 1)),
                        draw(st.sampled_from([-1, 0, 1]))))
        elif kind == "burst":
            a = draw(st.integers(0, N - 2))
            b = draw(st.integers(a + 1, N - 1))
            ops.append(("burst", a, b, draw(st.integers(5, 14))))
        else:
            ops.append((kind,))
    ops.append(("end_period",))
    return ops


class TestInterleavedEquivalence:
    @given(interleavings())
    @settings(max_examples=40, deadline=None)
    def test_reports_byte_identical_to_batch(self, ops):
        online = OnlineCollusionDetector(N, THRESHOLDS)
        window = []  # events since the last period close
        with tempfile.TemporaryDirectory() as tmp:
            for op in ops:
                if op[0] == "observe":
                    _, rater, target, value = op
                    if rater == target:
                        continue
                    online.observe(rater, target, value)
                    window.append((rater, target, value))
                elif op[0] == "burst":
                    _, a, b, count = op
                    for _ in range(count):
                        online.observe(a, b, 1)
                        online.observe(b, a, 1)
                        window.extend([(a, b, 1), (b, a, 1)])
                elif op[0] == "roundtrip":
                    # export -> JSON wire -> restore into a fresh detector
                    state = json.loads(json.dumps(online.export_state()))
                    fresh = OnlineCollusionDetector(N, THRESHOLDS)
                    fresh.restore_state(state)
                    online = fresh
                elif op[0] == "image":
                    # export_arrays -> image file -> mmap -> restore_arrays:
                    # the exact path a restarted mmap-mode shard worker takes
                    arrays = online.export_arrays()
                    path = os.path.join(tmp, "state.repm")
                    write_image(path, arrays,
                                {"events": online.events_this_period})
                    mapped, meta, mapping = map_image(path)
                    fresh = OnlineCollusionDetector(N, THRESHOLDS)
                    fresh.restore_arrays(mapped, int(meta["events"]))
                    del mapped
                    mapping.close()
                    online = fresh
                elif op[0] == "peek":
                    self._check_full_screen(online)
                    self._check(online.end_period(reset=False), window)
                elif op[0] == "end_period":
                    self._check_full_screen(online)
                    self._check(online.end_period(), window)
                    window = []

    def _check_full_screen(self, online):
        # Copies, so the detector under test keeps its incremental
        # state; each gets a fresh op counter (its lock cannot be
        # copied).
        incremental = copy.deepcopy(
            online, {id(online.ops): OpCounter()}).period_candidates()
        reference = copy.deepcopy(
            online, {id(online.ops): OpCounter()}).full_screen()
        assert_halves_identical(incremental, reference)

    def _check(self, report, window):
        matrix = RatingMatrix(N)
        for rater, target, value in window:
            matrix.add(rater, target, value)
        expected = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
        assert_reports_identical(report, expected)


class TestScreenScalarBitEquality:
    @given(
        thresholds=st.sampled_from([(0.9, 0.5), (0.9, 0.7),
                                    (1.0, 0.3), (0.8, 0.2)]),
        n_total=st.integers(0, 10 ** 6),
        pair_count=st.integers(0, 10 ** 6),
        reputation=st.integers(-10 ** 6, 10 ** 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_replica_matches_vectorized_screen(
            self, thresholds, n_total, pair_count, reputation):
        t_a, t_b = thresholds
        pair_count = min(pair_count, n_total)
        expected = formula2_screen(
            np.array([float(reputation)]), np.array([float(n_total)]),
            np.array([float(pair_count)]), t_a, t_b,
        )
        got = _screen_scalar(float(reputation), float(n_total),
                             float(pair_count), t_a, t_b)
        assert got == bool(expected[0])
