"""Tests for the streaming detector, including batch equivalence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import join_half_verdicts
from repro.core.online import OnlineCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError, RatingError, UnknownNodeError
from repro.ratings.matrix import RatingMatrix

from tests.conftest import matrix_runs

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


def feed(detector, matrix):
    """Stream a count matrix into the online detector."""
    for rater, target, value, count in matrix_runs(matrix):
        detector.observe(rater, target, value, count=count)


class TestIngestion:
    def test_observe_validation(self):
        d = OnlineCollusionDetector(5, THRESHOLDS)
        with pytest.raises(RatingError):
            d.observe(1, 1, 1)
        with pytest.raises(UnknownNodeError):
            d.observe(0, 9, 1)
        with pytest.raises(RatingError):
            d.observe(0, 1, 5)
        with pytest.raises(RatingError):
            d.observe(0, 1, 1, count=-1)

    def test_hot_set_admission(self):
        d = OnlineCollusionDetector(5, THRESHOLDS)
        d.observe(0, 1, 1, count=39)
        assert d.hot_pairs == 0
        d.observe(0, 1, 1)
        assert d.hot_pairs == 1

    def test_neutrals_ignored(self):
        d = OnlineCollusionDetector(5, THRESHOLDS)
        d.observe(0, 1, 0, count=100)
        assert d.hot_pairs == 0
        assert d.events_this_period == 100

    def test_reset_period(self):
        d = OnlineCollusionDetector(5, THRESHOLDS)
        d.observe(0, 1, 1, count=50)
        d.reset_period()
        assert d.hot_pairs == 0
        assert d.events_this_period == 0


class TestDetection:
    def test_finds_planted_pairs(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        feed(d, planted_matrix)
        report = d.end_period()
        assert report.pair_set() == {(4, 5), (6, 7)}

    def test_end_period_resets_by_default(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        feed(d, planted_matrix)
        d.end_period()
        assert d.hot_pairs == 0
        assert len(d.end_period()) == 0  # nothing left

    def test_peek_mode_keeps_state(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        feed(d, planted_matrix)
        first = d.end_period(reset=False)
        second = d.end_period(reset=False)
        assert first.pair_set() == second.pair_set()

    def test_include_gate(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        feed(d, planted_matrix)
        report = d.end_period(
            reputation=np.zeros(planted_matrix.n),
            include=np.array([4, 5]),
        )
        assert report.pair_set() == {(4, 5)}

    def test_bad_reputation_shape(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        with pytest.raises(DetectionError):
            d.end_period(reputation=np.zeros(3))

    def test_bad_include(self, planted_matrix):
        d = OnlineCollusionDetector(planted_matrix.n, THRESHOLDS)
        with pytest.raises(DetectionError):
            d.end_period(include=np.array([999]))

    def test_multi_period_stream(self):
        """Collusion in period 2 only is flagged in period 2 only."""
        d = OnlineCollusionDetector(20, THRESHOLDS)
        # period 1: honest traffic
        for r in range(5):
            d.observe(r, 10, 1, count=5)
        assert len(d.end_period()) == 0
        # period 2: a pair colludes
        d.observe(1, 2, 1, count=60)
        d.observe(2, 1, 1, count=60)
        for c in (5, 6, 7):
            d.observe(c, 1, -1, count=6)
            d.observe(c, 2, -1, count=6)
        assert d.end_period().pair_set() == {(1, 2)}


N = 16


@st.composite
def random_matrix(draw):
    matrix = RatingMatrix(N)
    for _ in range(draw(st.integers(0, 50))):
        r = draw(st.integers(0, N - 1))
        t = draw(st.integers(0, N - 1))
        if r == t:
            continue
        matrix.add(r, t, draw(st.sampled_from([-1, 1])),
                   count=draw(st.sampled_from([1, 4])))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, N - 2))
        b = draw(st.integers(a + 1, N - 1))
        pos = draw(st.integers(0, 25))
        if pos:
            matrix.add(a, b, 1, count=pos)
            matrix.add(b, a, 1, count=pos)
    return matrix


SMALL = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=15)


class TestBatchEquivalence:
    @given(random_matrix())
    @settings(max_examples=80, deadline=None)
    def test_equals_optimized_on_same_period(self, matrix):
        """Streaming and batch formulations produce identical pairs."""
        online = OnlineCollusionDetector(N, SMALL)
        feed(online, matrix)
        streaming = online.end_period()
        batch = OptimizedCollusionDetector(SMALL).detect(matrix)
        assert streaming.pair_set() == batch.pair_set()

    @given(random_matrix())
    @settings(max_examples=40, deadline=None)
    def test_equivalence_single_exclusion_mode(self, matrix):
        online = OnlineCollusionDetector(N, SMALL, multi_booster_exclusion=False)
        feed(online, matrix)
        streaming = online.end_period()
        batch = OptimizedCollusionDetector(
            SMALL, multi_booster_exclusion=False
        ).detect(matrix)
        assert streaming.pair_set() == batch.pair_set()

    def test_period_cost_scales_with_hot_pairs_not_n(self):
        """end_period work is driven by hot pairs, not universe size."""
        big = OnlineCollusionDetector(2000, THRESHOLDS)
        big.observe(4, 5, 1, count=60)
        big.observe(5, 4, 1, count=60)
        for c in range(10, 18):
            big.observe(c, 4, -1, count=5)
            big.observe(c, 5, -1, count=5)
        report = big.end_period()
        assert report.contains(4, 5)
        # no per-node scan: operations stay in the dozens even at n=2000
        assert report.total_operations() < 100


class TestHalfVerdicts:
    """period_candidates + join == end_period (the sharding split)."""

    @given(random_matrix())
    @settings(max_examples=40, deadline=None)
    def test_joined_candidates_equal_end_period(self, matrix):
        online = OnlineCollusionDetector(N, SMALL)
        feed(online, matrix)
        halves = online.period_candidates()
        joined = {(p.low, p.high) for p in join_half_verdicts(halves)}
        report = online.end_period()
        assert joined == set(report.pair_set())

    def test_half_verdicts_are_one_sided(self, planted_matrix):
        online = OnlineCollusionDetector(40, THRESHOLDS)
        feed(online, planted_matrix)
        halves = online.period_candidates()
        keys = {h.key for h in halves}
        # planted pairs produce both legs
        assert {(4, 5), (5, 4), (6, 7), (7, 6)} <= keys

    def test_candidates_do_not_consume_the_period(self, planted_matrix):
        online = OnlineCollusionDetector(40, THRESHOLDS)
        feed(online, planted_matrix)
        online.period_candidates()
        assert online.events_this_period > 0
        assert online.end_period().contains(4, 5)

    def test_external_reputation_gates_targets(self, planted_matrix):
        online = OnlineCollusionDetector(40, THRESHOLDS)
        feed(online, planted_matrix)
        nobody_high = np.full(40, -1000.0)
        assert online.period_candidates(reputation=nobody_high) == []

    def test_period_reputation_is_summation_contribution(self):
        online = OnlineCollusionDetector(10, THRESHOLDS)
        online.observe(1, 0, 1, count=3)
        online.observe(2, 0, -1, count=1)
        online.observe(0, 4, 1, count=2)
        expected = np.zeros(10)
        expected[0] = 3 - 1
        expected[4] = 2
        np.testing.assert_array_equal(online.period_reputation(), expected)


class TestStateExport:
    @given(random_matrix())
    @settings(max_examples=40, deadline=None)
    def test_restore_roundtrip_preserves_counters_and_verdicts(self, matrix):
        online = OnlineCollusionDetector(N, SMALL)
        feed(online, matrix)
        exported = online.export_state()
        clone = OnlineCollusionDetector(N, SMALL)
        clone.restore_arrays(online.export_arrays(), online.events_this_period)
        assert (json.dumps(clone.export_state(), sort_keys=True)
                == json.dumps(exported, sort_keys=True))
        assert (clone.end_period().pair_set()
                == online.end_period().pair_set())

    def test_restore_rebuilds_hot_set(self):
        online = OnlineCollusionDetector(10, THRESHOLDS)
        online.observe(4, 5, 1, count=60)
        online.observe(5, 4, 1, count=60)
        clone = OnlineCollusionDetector(10, THRESHOLDS)
        clone.restore_arrays(online.export_arrays(), online.events_this_period)
        assert clone._hot == online._hot

    def test_restore_rejects_wrong_universe(self):
        online = OnlineCollusionDetector(10, THRESHOLDS)
        other = OnlineCollusionDetector(12, THRESHOLDS)
        with pytest.raises(DetectionError, match="universe"):
            other.restore_arrays(online.export_arrays(), 0)

    def test_restore_rejects_wrong_shape(self):
        online = OnlineCollusionDetector(10, THRESHOLDS)
        arrays = online.export_arrays()
        arrays["node_eff"] = arrays["node_eff"][:9]
        with pytest.raises(DetectionError, match="shape"):
            OnlineCollusionDetector(10, THRESHOLDS).restore_arrays(arrays, 0)

    def test_resume_after_restore_continues_the_stream(self):
        """observe() after restore_arrays() behaves as if uninterrupted."""
        full = OnlineCollusionDetector(10, THRESHOLDS)
        cut = OnlineCollusionDetector(10, THRESHOLDS)
        stream = ([(4, 5, 1)] * 50 + [(5, 4, 1)] * 50
                  + [(7, 4, -1)] * 5 + [(8, 5, -1)] * 5)
        for rater, target, value in stream[:40]:
            full.observe(rater, target, value)
            cut.observe(rater, target, value)
        resumed = OnlineCollusionDetector(10, THRESHOLDS)
        resumed.restore_arrays(cut.export_arrays(), cut.events_this_period)
        for rater, target, value in stream[40:]:
            full.observe(rater, target, value)
            resumed.observe(rater, target, value)
        assert resumed.export_state() == full.export_state()
        assert (resumed.end_period().pair_set()
                == full.end_period().pair_set())
