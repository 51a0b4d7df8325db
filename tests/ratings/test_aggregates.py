"""Tests for vectorized aggregate views (Table-I quantities)."""

import math

import numpy as np
import pytest

from repro.errors import UnknownNodeError
from repro.ratings.aggregates import (
    node_stats,
    pair_view,
    positive_fraction_excluding,
    positive_fraction_from,
)
from repro.ratings.matrix import RatingMatrix


def make_matrix():
    m = RatingMatrix(5)
    # rater 1 -> target 0: 4 positive
    m.add(1, 0, 1, count=4)
    # rater 2 -> target 0: 1 positive, 3 negative
    m.add(2, 0, 1, count=1)
    m.add(2, 0, -1, count=3)
    # rater 3 -> target 0: 2 negative
    m.add(3, 0, -1, count=2)
    return m


class TestNodeStats:
    def test_totals(self):
        stats = node_stats(make_matrix())
        assert stats.total[0] == 10
        assert stats.positive[0] == 5
        assert stats.negative[0] == 5
        assert stats.reputation[0] == 0

    def test_length(self):
        assert len(node_stats(make_matrix())) == 5

    def test_nodes_without_ratings(self):
        stats = node_stats(make_matrix())
        assert stats.total[4] == 0
        assert stats.reputation[4] == 0


class TestPairView:
    def test_quantities(self):
        view = pair_view(make_matrix(), rater=1, target=0)
        assert view.pair_total == 4
        assert view.pair_positive == 4
        assert view.other_total == 6
        assert view.other_positive == 1
        assert view.a == 1.0
        assert view.b == pytest.approx(1 / 6)

    def test_nan_when_no_pair_ratings(self):
        view = pair_view(make_matrix(), rater=4, target=0)
        assert math.isnan(view.a)
        assert view.b == pytest.approx(0.5)

    def test_nan_when_no_other_raters(self):
        m = RatingMatrix(3)
        m.add(1, 0, 1, count=5)
        view = pair_view(m, rater=1, target=0)
        assert view.a == 1.0
        assert math.isnan(view.b)


class TestPositiveFractionFrom:
    def test_vector(self):
        a = positive_fraction_from(make_matrix(), target=0)
        assert a[1] == 1.0
        assert a[2] == pytest.approx(0.25)
        assert a[3] == 0.0
        assert math.isnan(a[4])

    def test_unknown_target(self):
        with pytest.raises(UnknownNodeError):
            positive_fraction_from(make_matrix(), target=7)


class TestPositiveFractionExcluding:
    def test_matches_pair_view(self):
        m = make_matrix()
        b = positive_fraction_excluding(m, target=0)
        for rater in (1, 2, 3):
            assert b[rater] == pytest.approx(pair_view(m, rater, 0).b)

    def test_excluding_nonrater_equals_overall(self):
        m = make_matrix()
        b = positive_fraction_excluding(m, target=0)
        assert b[4] == pytest.approx(0.5)

    def test_single_rater_yields_nan(self):
        m = RatingMatrix(3)
        m.add(1, 0, 1, count=5)
        b = positive_fraction_excluding(m, target=0)
        assert math.isnan(b[1])

    def test_unknown_target(self):
        with pytest.raises(UnknownNodeError):
            positive_fraction_excluding(make_matrix(), target=-1)


class TestOnCompressedRows:
    """All three row views read the stored rows only (no dense plane).

    Hand-computed case, neutrals included: target 0 gets 3 positives and
    1 neutral from rater 1, 2 positives and 2 negatives from rater 2.
    """

    def make(self):
        m = RatingMatrix(4)
        m.add(1, 0, 1, count=3)
        m.add(1, 0, 0, count=1)
        m.add(2, 0, -1, count=2)
        m.add(2, 0, 1, count=2)
        assert m.backend_name == "csr"
        return m

    def test_pair_view(self):
        view = pair_view(self.make(), rater=1, target=0)
        assert (view.pair_total, view.pair_positive) == (4, 3)
        assert (view.other_total, view.other_positive) == (4, 2)
        assert (view.a, view.b) == (0.75, 0.5)

    def test_positive_fraction_from(self):
        np.testing.assert_array_equal(
            positive_fraction_from(self.make(), target=0),
            [np.nan, 0.75, 0.5, np.nan])

    def test_positive_fraction_excluding(self):
        np.testing.assert_array_equal(
            positive_fraction_excluding(self.make(), target=0),
            [5 / 8, 2 / 4, 3 / 4, 5 / 8])
        np.testing.assert_array_equal(
            positive_fraction_excluding(self.make(), target=3),
            [np.nan] * 4)
