"""Latency percentiles for the benchmark harnesses.

Only :func:`percentile` lives here: ``perfbench/stats.py`` imports it
as ``repro.bench.loadgen.percentile`` to summarise its per-operation
latencies and trial spreads, so the module keeps its name.

Percentiles use linear interpolation between order statistics (the
same convention as ``numpy.percentile``'s default) so documented
numbers are reproducible from the raw samples.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation.

    Matches ``numpy.percentile``'s default (``linear``) method so the
    committed baseline numbers can be re-derived from raw samples with
    either implementation.  Empty input returns 0.0 — a series with no
    samples has no latency signal, not an error.
    """
    if not 0 <= q <= 100:
        raise ConfigurationError(f"percentile q must be in 0..100, got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction
