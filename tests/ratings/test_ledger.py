"""Tests for the columnar rating ledger."""

import numpy as np
import pytest

from repro.errors import RatingError, UnknownNodeError
from repro.ratings.events import Rating
from repro.ratings.ledger import RatingLedger


class TestAppend:
    def test_add_and_len(self):
        led = RatingLedger(5)
        led.add(0, 1, 1, 0.5)
        assert len(led) == 1

    def test_columns(self):
        led = RatingLedger(5)
        led.add(0, 1, -1, 2.0)
        assert led.raters[0] == 0
        assert led.targets[0] == 1
        assert led.values[0] == -1
        assert led.times[0] == 2.0

    def test_growth_past_initial_capacity(self):
        led = RatingLedger(5)
        for k in range(3000):
            led.add(k % 5, (k + 1) % 5, 1, float(k))
        assert len(led) == 3000
        assert led.times[-1] == 2999.0

    def test_self_rating_rejected(self):
        with pytest.raises(RatingError):
            RatingLedger(5).add(2, 2, 1)

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            RatingLedger(5).add(0, 5, 1)

    def test_bad_value_rejected(self):
        with pytest.raises(RatingError):
            RatingLedger(5).add(0, 1, 3)

    def test_add_rating_object(self):
        led = RatingLedger(5)
        led.add_rating(Rating(rater=1, target=0, value=0, time=1.0))
        assert led.values[0] == 0

    def test_add_rating_out_of_universe(self):
        led = RatingLedger(2)
        with pytest.raises(UnknownNodeError):
            led.add_rating(Rating(rater=1, target=5, value=1))


class TestExtend:
    def test_extend_matches_serial(self):
        a = RatingLedger(4)
        b = RatingLedger(4)
        data = [(0, 1, 1, 0.0), (1, 2, -1, 1.0), (3, 0, 0, 2.0)]
        for r, t, v, tm in data:
            a.add(r, t, v, tm)
        b.extend(*zip(*data))
        np.testing.assert_array_equal(a.raters, b.raters)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.times, b.times)

    def test_extend_default_times(self):
        led = RatingLedger(4)
        led.extend([0, 1], [1, 2], [1, 1])
        np.testing.assert_array_equal(led.times, [0.0, 0.0])

    def test_extend_empty(self):
        led = RatingLedger(4)
        led.extend([], [], [])
        assert len(led) == 0

    def test_extend_validates_atomically(self):
        led = RatingLedger(4)
        with pytest.raises(RatingError):
            led.extend([0, 2], [1, 2], [1, 1])
        assert len(led) == 0

    def test_extend_ragged_rejected(self):
        with pytest.raises(RatingError):
            RatingLedger(4).extend([0], [1, 2], [1, 1])


class TestIteration:
    def test_yields_rating_objects(self):
        led = RatingLedger(3)
        led.add(0, 1, 1, 5.0)
        events = list(led)
        assert events == [Rating(rater=0, target=1, value=1, time=5.0)]


class TestWindowing:
    def make(self):
        led = RatingLedger(4)
        led.extend([0, 0, 1, 2], [1, 1, 2, 3], [1, -1, 1, 1], [0.0, 1.0, 2.0, 3.0])
        return led

    def test_window_mask_half_open(self):
        led = self.make()
        mask = led.window_mask(1.0, 3.0)
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_windows_partition(self):
        led = self.make()
        m1 = led.window_mask(0.0, 2.0)
        m2 = led.window_mask(2.0, 4.0)
        assert (m1 | m2).all()
        assert not (m1 & m2).any()

    def test_inverted_window_rejected(self):
        with pytest.raises(RatingError):
            self.make().window_mask(3.0, 1.0)

    def test_to_matrix_full(self):
        led = self.make()
        m = led.to_matrix()
        assert m.pair_count(0, 1) == 2
        assert m.pair_positive(0, 1) == 1
        assert m.pair_negative(0, 1) == 1

    def test_to_matrix_window(self):
        led = self.make()
        m = led.to_matrix(t0=1.0, t1=2.5)
        assert m.pair_count(0, 1) == 1
        assert m.pair_count(1, 2) == 1
        assert m.pair_count(2, 3) == 0

    def test_to_matrix_precomputed_mask(self):
        led = self.make()
        mask = led.window_mask(0.0, 1.5)
        m = led.to_matrix(mask=mask)
        assert m.received_total().sum() == 2


class TestPairQueries:
    def test_pair_count(self):
        led = RatingLedger(4)
        led.extend([0, 0, 1], [1, 1, 0], [1, 1, 1], [0.0, 1.0, 2.0])
        assert led.pair_count(0, 1) == 2
        assert led.pair_count(1, 0) == 1
        assert led.pair_count(0, 1, t0=0.5) == 1

    def test_pair_series_ordered(self):
        led = RatingLedger(4)
        led.extend([0, 0, 0], [1, 1, 1], [1, -1, 1], [5.0, 1.0, 3.0])
        times, values = led.pair_series(0, 1)
        np.testing.assert_array_equal(times, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(values, [-1, 1, 1])

    def test_pair_series_empty(self):
        led = RatingLedger(4)
        times, values = led.pair_series(0, 1)
        assert times.size == 0
        assert values.size == 0

    def test_pair_frequency_table(self):
        led = RatingLedger(4)
        led.extend([0, 0, 1, 1, 1], [1, 1, 2, 2, 2], [1] * 5, [0.0] * 5)
        raters, targets, counts = led.pair_frequency_table()
        table = {(int(r), int(t)): int(c) for r, t, c in zip(raters, targets, counts)}
        assert table == {(0, 1): 2, (1, 2): 3}

    def test_pair_frequency_table_empty(self):
        raters, targets, counts = RatingLedger(4).pair_frequency_table()
        assert raters.size == targets.size == counts.size == 0

    def test_pair_frequency_table_windowed(self):
        led = RatingLedger(4)
        led.extend([0, 0], [1, 1], [1, 1], [0.0, 10.0])
        _, _, counts = led.pair_frequency_table(t0=5.0)
        assert counts.tolist() == [1]
