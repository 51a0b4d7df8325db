"""Unit tests for the harness percentile (`repro.bench.loadgen`)."""

import pytest

from repro.bench.loadgen import percentile
from repro.errors import ConfigurationError


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_endpoints(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_matches_numpy_convention(self):
        import numpy as np
        samples = [0.3, 9.1, 2.2, 5.0, 7.7, 1.1]
        for q in (50, 95, 99):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)
