"""Host speed, measured with a fixed reference kernel.

The shared host this benchmark runs on changes speed in steps: the same
CPU-bound pass can take twice as long for tens of minutes, then return.
Such a step moves every CPU-bound time of a run together and has
nothing to do with the program.  The workloads whose metrics are
CPU-bound run :func:`kernel` before their first timed sample and after
each one, and report every sample at the reference speed, scaled by the
kernel runs on either side of it::

    reported[i] = measured[i] * REFERENCE_KERNEL_S / mean(kernel[i], kernel[i + 1])

The speed can switch within seconds, so each sample is scaled by the
speed around it rather than by the run's mean speed.

The kernel is benchmark code that imports nothing from ``repro``: a
change to the program cannot change it.  It does the two kinds of work
the program does: interpreter work (JSON decoding, dicts, small
objects) and numpy passes over a freshly mapped 8 MB int64 plane.
Raw times are kept in each run's detail report.
"""

from __future__ import annotations

import json
import mmap
import time
from typing import List, Sequence

import numpy as np

#: Mean seconds :func:`kernel` took on the reference host (2 vCPUs of
#: a 2.1 GHz Xeon) when the benchmark was defined.  Only the ratio of
#: two runs' metrics matters, so this constant just fixes the scale of
#: the reported times.
REFERENCE_KERNEL_S = 0.0135

_LINES = [json.dumps({"rater": (7 * i) % 1999, "target": (13 * i) % 1997,
                      "value": 1 if i % 5 else -1, "time": float(i)})
          for i in range(1500)]
_PLANE_CELLS = 1000 * 1000
_INDEX = np.random.default_rng(0).integers(0, _PLANE_CELLS, size=20000)


def kernel() -> float:
    """Run the reference work once; return its wall-clock seconds."""
    started = time.perf_counter()
    totals: dict = {}
    for line in _LINES:
        record = json.loads(line)
        key = (record["rater"], record["target"])
        totals[key] = totals.get(key, 0) + record["value"]
    # A fresh anonymous mapping, unmapped on return: the allocator keeps
    # no memory of it, so the kernel adds nothing to a process's resident
    # set after it returns, nor to the workers that process forks later.
    with mmap.mmap(-1, 8 * _PLANE_CELLS) as buffer:
        plane = np.frombuffer(buffer, dtype=np.int64)
        np.add.at(plane, _INDEX, 1)
        plane.reshape(1000, 1000).sum(axis=0)
        np.nonzero(plane)
        del plane
    return time.perf_counter() - started


def speed_factor(kernel_seconds: Sequence[float]) -> float:
    """``REFERENCE_KERNEL_S / mean kernel time``, the run's mean speed:
    below 1 on a slow host.  Reported beside the scaled metrics."""
    return REFERENCE_KERNEL_S * len(kernel_seconds) / sum(kernel_seconds)


def at_reference(seconds: Sequence[float], kernel_seconds: Sequence[float]) -> List[float]:
    """``seconds[i]`` at the reference speed, scaled by the kernel runs just
    before and just after it, ``kernel_seconds[i]`` and ``kernel_seconds[i + 1]``."""
    if len(kernel_seconds) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} samples need {len(seconds) + 1} kernel runs, "
                         f"got {len(kernel_seconds)}")
    return [measured * 2.0 * REFERENCE_KERNEL_S / (before + after)
            for measured, before, after in zip(seconds, kernel_seconds, kernel_seconds[1:])]
