"""Service observability: counters and latency histograms.

Built on :class:`repro.util.counters.OpCounter` (now thread-safe), so
one metrics object is shared by the ingest front-end, every shard
worker and the HTTP ``/metrics`` endpoint without extra locking.

Latencies are recorded into fixed power-of-two microsecond buckets —
cumulative ("less-or-equal") semantics like Prometheus histograms, so
quantiles can be estimated downstream and bucket counts are monotone.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.util.counters import OpCounter

__all__ = ["LatencyHistogram", "ServiceMetrics"]

#: Bucket upper bounds in microseconds (powers of two up to ~8.4 s).
_BUCKETS_US: Tuple[int, ...] = tuple(2 ** k for k in range(4, 24))


class LatencyHistogram:
    """Bucketed latency recorder on top of a shared :class:`OpCounter`.

    Each observation increments one bucket counter named
    ``{name}_le_{bound}us`` (the smallest bound >= the observation, or
    ``{name}_le_inf``), plus ``{name}_count`` and ``{name}_sum_us``.
    Because every increment is a thread-safe ``OpCounter.add``, shard
    workers can record concurrently with metric reads.
    """

    __slots__ = ("name", "ops")

    def __init__(self, name: str, ops: Optional[OpCounter] = None) -> None:
        self.name = name
        self.ops = ops if ops is not None else OpCounter()

    def observe(self, seconds: float) -> None:
        """Record one latency observation (in seconds)."""
        if seconds < 0:
            seconds = 0.0
        micros = int(seconds * 1e6)
        label = "inf"
        for bound in _BUCKETS_US:
            if micros <= bound:
                label = f"{bound}us"
                break
        self.ops.add(f"{self.name}_le_{label}", 1)
        self.ops.add(f"{self.name}_count", 1)
        self.ops.add(f"{self.name}_sum_us", micros)

    def time(self) -> "_Timer":
        """Context manager that observes the block's wall time."""
        return _Timer(self)

    # -- read side -----------------------------------------------------
    def count(self) -> int:
        return self.ops.get(f"{self.name}_count")

    def mean_us(self) -> float:
        count = self.count()
        return self.ops.get(f"{self.name}_sum_us") / count if count else 0.0

    def buckets(self) -> Dict[str, int]:
        """Cumulative bucket counts ``{"<=16us": k, ...}`` (monotone)."""
        snapshot = self.ops.snapshot()
        out: Dict[str, int] = {}
        running = 0
        for bound in _BUCKETS_US:
            running += snapshot.get(f"{self.name}_le_{bound}us", 0)
            out[f"<={bound}us"] = running
        out["<=inf"] = running + snapshot.get(f"{self.name}_le_inf", 0)
        return out


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: LatencyHistogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class ServiceMetrics:
    """All service counters behind one object.

    Counter names (the stable observability contract, asserted by
    tests and documented in ``docs/SERVICE.md``):

    * ``ingest_batches`` / ``ingest_events`` — accepted work;
    * ``ingest_rejected_batches`` / ``ingest_rejected_events`` —
      backpressure rejections (nothing from these batches was applied);
    * ``wal_appends`` — durable WAL writes;
    * ``snapshots`` — snapshot files written;
    * ``periods_closed`` — completed epoch orchestrations;
    * ``detections`` — convicted pairs published across all epochs;
    * ``detector:*`` — the shard detectors' own algorithmic op counts,
      merged in at each period close.

    The ``screen`` block of :meth:`to_dict` distills the incremental
    screen's health from the ``detector:*`` counters:
    ``pairs_enqueued`` (flipped-bound pairs queued by ``observe``),
    ``pairs_evaluated`` (pairs actually screened at period close,
    ``detector:pact_eval``) and ``full_screens`` (whole-universe
    passes).  A ``pairs_evaluated``/``pairs_enqueued`` ratio far above
    1 means the screen is degenerating toward full passes.

    Histograms: ``ingest`` (per accepted batch, WAL + enqueue),
    ``end_period`` (full orchestration: drain, merge, snapshot) and
    ``worker_restart`` (a shard's recovery: map its latest state image,
    replay the WAL tail, catch up to the committed epoch).
    """

    def __init__(self) -> None:
        self.ops = OpCounter()
        self.ingest_latency = LatencyHistogram("ingest", self.ops)
        self.end_period_latency = LatencyHistogram("end_period", self.ops)
        self.worker_restart_latency = LatencyHistogram(
            "worker_restart", self.ops
        )

    def merge_detector_ops(self, detector_ops: Dict[str, int]) -> None:
        """Fold a shard detector's op-count diff in, namespaced."""
        for name, value in detector_ops.items():
            self.ops.add(f"detector:{name}", value)

    def to_dict(self) -> Dict[str, object]:
        """JSON document served by ``GET /metrics``."""
        counters = self.ops.snapshot()
        histogram_names = ("ingest", "end_period", "worker_restart")
        plain = {
            name: value
            for name, value in sorted(counters.items())
            if not any(name.startswith(f"{h}_le_") or name == f"{h}_count"
                       or name == f"{h}_sum_us" for h in histogram_names)
        }
        histograms: Dict[str, object] = {}
        for histogram in (self.ingest_latency, self.end_period_latency,
                          self.worker_restart_latency):
            histograms[histogram.name] = {
                "count": histogram.count(),
                "mean_us": round(histogram.mean_us(), 3),
                "buckets": histogram.buckets(),
            }
        screen = {
            "pairs_enqueued": counters.get("detector:pairs_enqueued", 0),
            "pairs_evaluated": counters.get("detector:pact_eval", 0),
            "full_screens": counters.get("detector:full_screen", 0),
        }
        return {"counters": plain, "screen": screen,
                "histograms": histograms}
