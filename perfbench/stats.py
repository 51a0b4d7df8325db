"""Order statistics under the benchmark's percentile rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it.  :func:`median` refuses fewer samples than the rule
needs for a p50; :func:`summarize` leaves out every percentile the
sample count does not support.  Interpolation is
:func:`repro.bench.loadgen.percentile`'s.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bench.loadgen import percentile

MIN_BEYOND = 10
#: Tail percentiles a summary tries, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def highest_supported(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that ``count`` samples support."""
    for q in TAIL_LADDER:
        if supported(count, q):
            return q
    return None


def median(samples: Sequence[float]) -> float:
    """The p50 of ``samples``; fewer than ``2 * MIN_BEYOND`` raise."""
    if not supported(len(samples), 50.0):
        raise ValueError(f"a p50 needs {2 * MIN_BEYOND} samples, got {len(samples)}")
    return percentile(samples, 50.0)


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Count, max, and each supported percentile: p50, p95, highest tail."""
    out: Dict[str, object] = {"count": len(samples)}
    if not samples:
        return out
    for q, key in ((50.0, "p50"), (95.0, "p95")):
        if supported(len(samples), q):
            out[key] = percentile(samples, q)
    tail = highest_supported(len(samples))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(samples, tail)
    out["max"] = max(samples)
    return out


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0
