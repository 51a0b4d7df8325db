"""Tests for the eBay-style summation reputation."""

import numpy as np
import pytest

from repro.errors import RatingError, UnknownNodeError
from repro.ratings.matrix import RatingMatrix
from repro.reputation.summation import SummationReputation, SummationState


def make_matrix():
    m = RatingMatrix(4)
    m.add(1, 0, 1, count=3)
    m.add(2, 0, -1, count=1)
    m.add(0, 1, -1, count=2)
    m.add(3, 2, 0, count=5)  # neutrals contribute nothing
    return m


class TestSummation:
    def test_values(self):
        rep = SummationReputation().compute(make_matrix())
        np.testing.assert_array_equal(rep, [2, -2, 0, 0])

    def test_neutral_ignored(self):
        rep = SummationReputation().compute(make_matrix())
        assert rep[2] == 0

    def test_normalized(self):
        rep = SummationReputation(normalize=True).compute(make_matrix())
        assert np.abs(rep).sum() == pytest.approx(1.0)
        assert rep[0] > 0 > rep[1]

    def test_normalize_all_zero(self):
        rep = SummationReputation(normalize=True).compute(RatingMatrix(3))
        np.testing.assert_array_equal(rep, [0, 0, 0])

    def test_trustworthy_mask(self):
        system = SummationReputation()
        mask = system.trustworthy(make_matrix(), threshold=1.0)
        np.testing.assert_array_equal(mask, [True, False, False, False])

    def test_ops_accounted(self):
        system = SummationReputation()
        system.compute(make_matrix())
        assert system.ops.total() > 0

    def test_pure(self):
        system = SummationReputation()
        m = make_matrix()
        np.testing.assert_array_equal(system.compute(m), system.compute(m))


class TestSummationState:
    def test_matches_batch_summation(self, rng):
        """The O(1) accumulator publishes the same vector as the
        matrix-based recompute on the same events."""
        matrix = RatingMatrix(12)
        state = SummationState(12)
        for _ in range(400):
            rater, target = rng.choice(12, size=2, replace=False)
            value = int(rng.choice([-1, 0, 1]))
            matrix.add(int(rater), int(target), value)
            state.observe(int(target), value)
        np.testing.assert_array_equal(
            state.reputation(), SummationReputation().compute(matrix))

    def test_observe_validation(self):
        state = SummationState(4)
        with pytest.raises(UnknownNodeError):
            state.observe(4, 1)
        with pytest.raises(RatingError):
            state.observe(1, 2)
        with pytest.raises(RatingError):
            state.observe(1, 1, count=-1)

    def test_bulk_count(self):
        state = SummationState(4)
        state.observe(2, 1, count=7)
        state.observe(2, -1, count=3)
        assert state.reputation_of(2) == 4.0

    def test_merge_is_elementwise(self):
        a, b = SummationState(4), SummationState(4)
        a.observe(0, 1, count=2)
        b.observe(0, -1, count=1)
        b.observe(3, 1, count=5)
        a.merge(b)
        np.testing.assert_array_equal(a.reputation(), [1, 0, 0, 5])
        with pytest.raises(RatingError):
            a.merge(SummationState(5))

    def test_export_from_arrays_roundtrip(self):
        state = SummationState(4)
        state.observe(1, 1, count=9)
        state.observe(2, -1, count=4)
        arrays = state.export_arrays()
        clone = SummationState.from_arrays(4, arrays["pos"], arrays["neg"])
        np.testing.assert_array_equal(clone.reputation(), state.reputation())
        assert clone.export_state() == state.export_state()

    def test_reset(self):
        state = SummationState(4)
        state.observe(1, 1, count=9)
        state.reset()
        np.testing.assert_array_equal(state.reputation(), np.zeros(4))
