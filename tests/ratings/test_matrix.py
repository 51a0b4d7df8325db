"""Tests for the rating matrix (compressed-row storage)."""

import numpy as np
import pytest

from repro.errors import RatingError, UnknownNodeError
from repro.ratings.matrix import RatingMatrix


class TestConstruction:
    def test_starts_zeroed(self):
        m = RatingMatrix(4)
        assert all(a.size == 0 for a in m.all_entries())
        assert m.received_total().sum() == 0
        assert m.backend_name == "csr"

    def test_invalid_size(self):
        with pytest.raises(Exception):
            RatingMatrix(0)


class TestAdd:
    def test_positive(self):
        m = RatingMatrix(3)
        m.add(rater=0, target=1, value=1)
        assert m.pair_count(0, 1) == 1
        assert m.pair_positive(0, 1) == 1
        assert m.pair_negative(0, 1) == 0

    def test_negative(self):
        m = RatingMatrix(3)
        m.add(0, 1, -1)
        assert m.pair_negative(0, 1) == 1

    def test_neutral_counts_total_only(self):
        m = RatingMatrix(3)
        m.add(0, 1, 0)
        assert m.pair_count(0, 1) == 1
        assert m.pair_positive(0, 1) == 0
        assert m.pair_negative(0, 1) == 0

    def test_bulk_count(self):
        m = RatingMatrix(3)
        m.add(0, 1, 1, count=10)
        assert m.pair_count(0, 1) == 10

    def test_orientation_target_rater(self):
        m = RatingMatrix(3)
        m.add(rater=2, target=0, value=1)
        targets, raters, _, _, _ = m.all_entries()
        assert (targets.tolist(), raters.tolist()) == ([0], [2])
        assert m.row_entries(0)[0].tolist() == [2]
        assert m.row_entries(2)[0].size == 0

    def test_self_rating_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add(1, 1, 1)

    def test_unknown_node_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(UnknownNodeError):
            m.add(0, 3, 1)
        with pytest.raises(UnknownNodeError):
            m.add(-1, 0, 1)

    def test_bad_value_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add(0, 1, 2)

    def test_negative_count_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add(0, 1, 1, count=-1)


class TestAddEvents:
    def test_bulk_matches_serial(self):
        rng = np.random.default_rng(0)
        raters = rng.integers(0, 10, 200)
        targets = (raters + 1 + rng.integers(0, 9, 200)) % 10
        values = rng.choice([-1, 0, 1], 200)
        bulk = RatingMatrix(10)
        bulk.add_events(raters, targets, values)
        serial = RatingMatrix(10)
        for r, t, v in zip(raters, targets, values):
            serial.add(int(r), int(t), int(v))
        assert bulk == serial

    def test_empty_ok(self):
        m = RatingMatrix(3)
        m.add_events([], [], [])
        assert m == RatingMatrix(3)

    def test_self_rating_rejected_atomically(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add_events([0, 1], [1, 1], [1, 1])
        assert m == RatingMatrix(3)  # nothing partially applied

    def test_out_of_range_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(UnknownNodeError):
            m.add_events([0], [5], [1])

    def test_bad_values_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add_events([0], [1], [7])

    def test_mismatched_lengths_rejected(self):
        m = RatingMatrix(3)
        with pytest.raises(RatingError):
            m.add_events([0, 1], [1], [1])


class TestAggregates:
    def make(self):
        m = RatingMatrix(4)
        m.add(0, 1, 1, count=3)
        m.add(2, 1, -1, count=2)
        m.add(3, 1, 0, count=1)
        m.add(1, 0, 1, count=5)
        return m

    def test_received_total(self):
        m = self.make()
        np.testing.assert_array_equal(m.received_total(), [5, 6, 0, 0])

    def test_received_positive(self):
        m = self.make()
        np.testing.assert_array_equal(m.received_positive(), [5, 3, 0, 0])

    def test_received_negative(self):
        m = self.make()
        np.testing.assert_array_equal(m.received_negative(), [0, 2, 0, 0])

    def test_reputation_sum(self):
        m = self.make()
        np.testing.assert_array_equal(m.reputation_sum(), [5, 1, 0, 0])

    def test_row_views(self):
        m = self.make()
        raters, counts, pos = m.row_entries(1, effective=False)
        assert raters.tolist() == [0, 2, 3]
        assert counts.tolist() == [3, 2, 1]
        assert pos.tolist() == [3, 0, 0]
        raters, counts, pos = m.row_entries(1)   # neutral rater 3 elided
        assert raters.tolist() == [0, 2]
        assert counts.tolist() == [3, 2]

    def test_row_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            self.make().row_entries(9)


class TestCopyEquality:
    def test_copy_independent(self):
        m = RatingMatrix(3)
        m.add(0, 1, 1)
        c = m.copy()
        c.add(0, 1, 1)
        assert m.pair_count(0, 1) == 1
        assert c.pair_count(0, 1) == 2

    def test_equality(self):
        a = RatingMatrix(3)
        b = RatingMatrix(3)
        a.add(0, 1, 1)
        b.add(0, 1, 1)
        assert a == b
        b.add(0, 2, -1)
        assert a != b

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(RatingMatrix(2))

    def test_reset(self):
        m = RatingMatrix(3)
        m.add(0, 1, 1)
        m.reset()
        assert m == RatingMatrix(3)
