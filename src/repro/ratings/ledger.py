"""Append-only rating ledger with columnar (numpy) storage.

The ledger is the ground-truth event log a reputation manager collects.
It stores ratings column-wise in growable numpy arrays so that windowed
aggregation (the paper's period ``T``), per-pair queries and matrix
construction are all vectorized operations rather than per-event Python
loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import RatingError, UnknownNodeError
from repro.ratings.events import Rating
from repro.ratings.matrix import RatingMatrix
from repro.util.validation import check_int_range

__all__ = ["RatingLedger"]

_INITIAL_CAPACITY = 1024


class RatingLedger:
    """Columnar, append-only store of :class:`Rating` events.

    Parameters
    ----------
    n:
        Size of the node universe; ids outside ``0 .. n-1`` are rejected.

    Notes
    -----
    Amortized O(1) appends via capacity doubling; all reads operate on
    zero-copy slices of the live arrays.
    """

    __slots__ = ("n", "_size", "_raters", "_targets", "_values", "_times")

    def __init__(self, n: int):
        check_int_range("n", n, 1)
        self.n = n
        self._size = 0
        self._raters = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._targets = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=np.int8)
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _ensure_capacity(self, extra: int) -> None:
        need = self._size + extra
        cap = len(self._raters)
        if need <= cap:
            return
        new_cap = max(need, cap * 2)
        for name in ("_raters", "_targets", "_values", "_times"):
            old = getattr(self, name)
            new = np.empty(new_cap, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, rater: int, target: int, value: int, time: float = 0.0) -> None:
        """Append one rating event (validated like :class:`Rating`)."""
        if rater == target:
            raise RatingError(f"self-rating rejected (node {rater})")
        if not 0 <= rater < self.n:
            raise UnknownNodeError(rater, self.n)
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        if value not in (-1, 0, 1):
            raise RatingError(f"rating value must be -1, 0 or +1, got {value!r}")
        self._ensure_capacity(1)
        i = self._size
        self._raters[i] = rater
        self._targets[i] = target
        self._values[i] = value
        self._times[i] = time
        self._size = i + 1

    def add_rating(self, rating: Rating) -> None:
        """Append a pre-validated :class:`Rating` object."""
        if not 0 <= rating.rater < self.n:
            raise UnknownNodeError(rating.rater, self.n)
        if not 0 <= rating.target < self.n:
            raise UnknownNodeError(rating.target, self.n)
        self._ensure_capacity(1)
        i = self._size
        self._raters[i] = rating.rater
        self._targets[i] = rating.target
        self._values[i] = rating.value
        self._times[i] = rating.time
        self._size = i + 1

    def extend(
        self,
        raters: Iterable[int],
        targets: Iterable[int],
        values: Iterable[int],
        times: Optional[Iterable[float]] = None,
    ) -> None:
        """Bulk-append parallel columns (vectorized validation)."""
        r = np.asarray(list(raters) if not isinstance(raters, np.ndarray) else raters,
                       dtype=np.int64)
        t = np.asarray(list(targets) if not isinstance(targets, np.ndarray) else targets,
                       dtype=np.int64)
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.int64)
        if times is None:
            tm = np.zeros(r.size, dtype=np.float64)
        else:
            tm = np.asarray(
                list(times) if not isinstance(times, np.ndarray) else times,
                dtype=np.float64,
            )
        if not (r.shape == t.shape == v.shape == tm.shape) or r.ndim != 1:
            raise RatingError("extend() requires equal-length 1-D columns")
        if r.size == 0:
            return
        if (r < 0).any() or (r >= self.n).any() or (t < 0).any() or (t >= self.n).any():
            raise UnknownNodeError(int(max(r.max(initial=0), t.max(initial=0))), self.n)
        if (r == t).any():
            bad = int(r[(r == t).argmax()])
            raise RatingError(f"self-rating rejected (node {bad})")
        if not np.isin(v, (-1, 0, 1)).all():
            raise RatingError("rating values must be -1, 0 or +1")
        self._ensure_capacity(r.size)
        s, e = self._size, self._size + r.size
        self._raters[s:e] = r
        self._targets[s:e] = t
        self._values[s:e] = v
        self._times[s:e] = tm
        self._size = e

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------
    @property
    def raters(self) -> np.ndarray:
        """Rater ids of every event (live view — do not mutate)."""
        return self._raters[: self._size]

    @property
    def targets(self) -> np.ndarray:
        """Target ids of every event (live view)."""
        return self._targets[: self._size]

    @property
    def values(self) -> np.ndarray:
        """Values of every event (live view)."""
        return self._values[: self._size]

    @property
    def times(self) -> np.ndarray:
        """Timestamps of every event (live view)."""
        return self._times[: self._size]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Rating]:
        """Iterate events as :class:`Rating` objects (slow path, for tests)."""
        for i in range(self._size):
            yield Rating(
                rater=int(self._raters[i]),
                target=int(self._targets[i]),
                value=int(self._values[i]),
                time=float(self._times[i]),
            )

    # ------------------------------------------------------------------
    # windowing & aggregation
    # ------------------------------------------------------------------
    def window_mask(self, t0: float = -np.inf, t1: float = np.inf) -> np.ndarray:
        """Boolean mask of events with ``t0 <= time < t1``.

        Half-open on the right so consecutive periods partition events.
        """
        if t1 < t0:
            raise RatingError(f"empty window: t0={t0} > t1={t1}")
        times = self.times
        return (times >= t0) & (times < t1)

    def to_matrix(
        self,
        t0: float = -np.inf,
        t1: float = np.inf,
        mask: Optional[np.ndarray] = None,
    ) -> RatingMatrix:
        """Build a :class:`RatingMatrix` from events in ``[t0, t1)``.

        A precomputed ``mask`` (from :meth:`window_mask`) may be passed
        to avoid recomputing it.  Ingestion is one vectorized
        ``add_events`` call.
        """
        m = self.window_mask(t0, t1) if mask is None else np.asarray(mask, dtype=bool)
        matrix = RatingMatrix(self.n)
        if m.any():
            matrix.add_events(
                self.raters[m], self.targets[m], self.values[m].astype(np.int64)
            )
        return matrix

    def pair_count(self, rater: int, target: int,
                   t0: float = -np.inf, t1: float = np.inf) -> int:
        """Number of ratings ``rater -> target`` inside the window."""
        m = self.window_mask(t0, t1)
        return int(((self.raters == rater) & (self.targets == target) & m).sum())

    def pair_series(self, rater: int, target: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` of all ratings ``rater -> target``, time-ordered.

        Used to reproduce Figure 1(b)'s rating-over-time plots.
        """
        sel = (self.raters == rater) & (self.targets == target)
        times = self.times[sel]
        values = self.values[sel].astype(np.int64)
        order = np.argsort(times, kind="stable")
        return times[order], values[order]

    def pair_frequency_table(
        self, t0: float = -np.inf, t1: float = np.inf
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (rater, target) pairs and their rating counts in window.

        Returns ``(raters, targets, counts)`` — the input to the
        suspicious-pair filter of Section III (pairs above ~20
        ratings/year are suspicious).  Implemented with a single sort
        over packed 128-bit-safe keys, no Python loops.
        """
        m = self.window_mask(t0, t1)
        r = self.raters[m]
        t = self.targets[m]
        if r.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        keys = r * np.int64(self.n) + t
        uniq, counts = np.unique(keys, return_counts=True)
        return uniq // self.n, uniq % self.n, counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatingLedger(n={self.n}, events={self._size})"
