"""Pair-count rating matrix — the manager's "n x n matrix".

The paper's reputation manager "builds an n x n matrix … [whose element]
records the reputation ratings" (Section IV-B).  :class:`RatingMatrix`
is that structure: the total / positive / negative rating counts for
every ``[target, rater]`` pair in the current reputation period ``T``.

Storage is compressed sparse rows (:class:`CsrRows`: one ``indptr``
and four flat ``int64`` columns).  Memory is O(E) for E distinct
(target, rater) edges — real rating graphs are sparse, each rater
rating only a subset of the nodes.  No detector needs an ``(n, n)``
plane: Proposition 4.2's screen reads per-node totals and one pair
count per stored entry, which the ``received_*`` aggregates,
:meth:`RatingMatrix.row_entries` and :meth:`RatingMatrix.entries`
provide.

Performance notes
-----------------
* Bulk ``add_events`` merges the batch with the stored entries in one
  stable sort of the packed key ``target * n + rater`` and one
  ``np.add.reduceat`` per column: O(E log E), no per-row loop.  Every
  production matrix is built this way.
* ``add`` binary-searches one row and bumps the entry in place, or
  inserts it into the four columns and shifts ``indptr`` (O(E)).
* ``entries()`` is ``np.repeat`` of the row ids plus one mask, and
  ``row_entries`` / pair lookups are ``indptr`` slices.
* Node aggregates (``N_i``, ``N+_i``, ``N-_i``) are maintained
  incrementally, so every row reduction the detectors read is O(1).
* Row and COO accessors may return the stored arrays themselves;
  callers must not mutate them.

Neutral ratings
---------------
Neutral (0) ratings count toward the totals but toward neither the
positives nor the negatives.  The detectors operate on *effective*
counts — positives + negatives, ``row_entries(effective=True)`` /
``entries(effective=True)`` — because Formula (1)'s two-valued (±1)
identity is exact only after neutrals are excluded.  The raw totals
exist for audit and trace statistics; detection never reads them
unless explicitly configured to
(``BasicCollusionDetector(use_effective_counts=False)``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import RatingError, UnknownNodeError
from repro.util.validation import check_int_range

__all__ = ["CsrRows", "RatingMatrix"]

#: Concrete array type of every stored plane/aggregate: int64 counts.
IntArray = npt.NDArray[np.int64]

_EMPTY_I64: IntArray = np.empty(0, dtype=np.int64)


class CsrRows:
    """Compressed sparse rows: one ``indptr`` and four flat columns.

    Target ``t``'s entries are ``raters/counts/pos/neg[indptr[t]:
    indptr[t + 1]]`` with ``raters`` strictly ascending; every stored
    entry has a nonzero total.  Arguments are pre-validated by
    :class:`RatingMatrix`.
    """

    name = "csr"

    __slots__ = ("n", "_indptr", "_raters", "_counts", "_pos", "_neg",
                 "_node_total", "_node_pos", "_node_neg")

    def __init__(self, n: int) -> None:
        self.n = n
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        self._raters = self._counts = self._pos = self._neg = _EMPTY_I64
        self._node_total = np.zeros(n, dtype=np.int64)
        self._node_pos = np.zeros(n, dtype=np.int64)
        self._node_neg = np.zeros(n, dtype=np.int64)

    def _targets(self) -> IntArray:
        """The target of every stored entry (the column ``indptr`` packs)."""
        return np.repeat(np.arange(self.n, dtype=np.int64),
                         np.diff(self._indptr))

    def _find(self, rater: int, target: int) -> Tuple[int, bool]:
        """Index of ``(target, rater)`` in the columns (or where it goes)."""
        lo, hi = int(self._indptr[target]), int(self._indptr[target + 1])
        k = lo + int(np.searchsorted(self._raters[lo:hi], rater))
        return k, k < hi and int(self._raters[k]) == rater

    # mutation -----------------------------------------------------------
    def add(self, rater: int, target: int, value: int, count: int) -> None:
        if count == 0:
            return
        pos = count if value == 1 else 0
        neg = count if value == -1 else 0
        k, found = self._find(rater, target)
        if found:
            self._counts[k] += count
            self._pos[k] += pos
            self._neg[k] += neg
        else:
            self._raters = np.insert(self._raters, k, rater)
            self._counts = np.insert(self._counts, k, count)
            self._pos = np.insert(self._pos, k, pos)
            self._neg = np.insert(self._neg, k, neg)
            self._indptr[target + 1:] += 1
        self._node_total[target] += count
        self._node_pos[target] += pos
        self._node_neg[target] += neg

    def add_events(self, raters: IntArray, targets: IntArray,
                   values: IntArray) -> None:
        n = self.n
        # Stored entries and the batch in one stable sort of a packed
        # (target, rater) key; each run of equal keys is one entry.
        keys = np.concatenate((self._targets() * n + self._raters,
                               targets * np.int64(n) + raters))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                keys[1:] != keys[:-1])))
        planes = (np.concatenate((self._counts, np.ones_like(values))),
                  np.concatenate((self._pos, (values == 1).astype(np.int64))),
                  np.concatenate((self._neg, (values == -1).astype(np.int64))))
        self._counts, self._pos, self._neg = (
            np.add.reduceat(plane[order], starts) for plane in planes)
        uniq = keys[starts]
        self._raters = uniq % n
        np.cumsum(np.bincount(uniq // n, minlength=n), out=self._indptr[1:])
        self._node_total += np.bincount(targets, minlength=n)
        self._node_pos += np.bincount(targets[values == 1], minlength=n)
        self._node_neg += np.bincount(targets[values == -1], minlength=n)

    def reset(self) -> None:
        self._indptr[:] = 0
        self._raters = self._counts = self._pos = self._neg = _EMPTY_I64
        self._node_total[:] = 0
        self._node_pos[:] = 0
        self._node_neg[:] = 0

    def copy(self) -> "CsrRows":
        out = CsrRows.__new__(CsrRows)
        out.n = self.n
        for name in self.__slots__[1:]:   # every slot after n is an array
            setattr(out, name, getattr(self, name).copy())
        return out

    # aggregates ---------------------------------------------------------
    def received_total(self) -> IntArray:
        return self._node_total.copy()

    def received_positive(self) -> IntArray:
        return self._node_pos.copy()

    def received_negative(self) -> IntArray:
        return self._node_neg.copy()

    def received_effective(self) -> IntArray:
        return self._node_pos + self._node_neg

    # access -------------------------------------------------------------
    def pair_triple(self, rater: int, target: int) -> Tuple[int, int, int]:
        """``(count, positive, negative)`` for one (rater, target) pair."""
        k, found = self._find(rater, target)
        if not found:
            return 0, 0, 0
        return int(self._counts[k]), int(self._pos[k]), int(self._neg[k])

    def row_entries(self, target: int, effective: bool = True
                    ) -> Tuple[IntArray, IntArray, IntArray]:
        row = slice(self._indptr[target], self._indptr[target + 1])
        sel = (self._pos[row] + self._neg[row] if effective
               else self._counts[row])
        mask = sel != 0
        return self._raters[row][mask], sel[mask], self._pos[row][mask]

    def entries(self, effective: bool = True
                ) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
        sel = self._pos + self._neg if effective else self._counts
        mask = sel != 0
        return (self._targets()[mask], self._raters[mask], sel[mask],
                self._pos[mask])

    def all_entries(self) -> Tuple[IntArray, IntArray, IntArray,
                                   IntArray, IntArray]:
        return (self._targets(), self._raters, self._counts, self._pos,
                self._neg)


class RatingMatrix:
    """Counts of ratings between every (target, rater) pair.

    Parameters
    ----------
    n:
        Number of nodes in the universe; node ids are ``0 .. n-1``.

    Notes
    -----
    Entry ``[i, j]`` is the number of ratings node ``j`` submitted
    *about* node ``i`` (received-orientation; see
    :mod:`repro.ratings`).  Only nonzero entries are stored.
    """

    __slots__ = ("n", "_csr")

    def __init__(self, n: int) -> None:
        check_int_range("n", n, 1)
        self.n = n
        self._csr = CsrRows(n)

    @property
    def backend(self) -> CsrRows:
        """The row store itself (profilers size its arrays)."""
        return self._csr

    @property
    def backend_name(self) -> str:
        """Name of the storage layout (always ``"csr"``)."""
        return self._csr.name

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check_ids(self, rater: int, target: int) -> None:
        if not 0 <= rater < self.n:
            raise UnknownNodeError(rater, self.n)
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        if rater == target:
            raise RatingError(f"self-rating rejected (node {rater})")

    def add(self, rater: int, target: int, value: int, count: int = 1) -> None:
        """Record ``count`` identical ratings of ``value`` from ``rater``.

        ``value`` must be -1, 0 or +1.
        """
        self._check_ids(rater, target)
        if value not in (-1, 0, 1):
            raise RatingError(f"rating value must be -1, 0 or +1, got {value!r}")
        if count < 0:
            raise RatingError(f"count must be non-negative, got {count}")
        self._csr.add(rater, target, value, count)

    def add_events(
        self,
        raters: Sequence[int],
        targets: Sequence[int],
        values: Sequence[int],
    ) -> None:
        """Bulk-ingest parallel event arrays (vectorized, no Python loop).

        Invalid entries (out-of-range ids, self-ratings, bad values)
        raise before any state is modified.
        """
        r = np.asarray(raters, dtype=np.int64)
        t = np.asarray(targets, dtype=np.int64)
        v = np.asarray(values, dtype=np.int64)
        if not (r.shape == t.shape == v.shape) or r.ndim != 1:
            raise RatingError("raters, targets and values must be equal-length 1-D arrays")
        if r.size == 0:
            return
        if (r < 0).any() or (r >= self.n).any() or (t < 0).any() or (t >= self.n).any():
            raise UnknownNodeError(int(r.max(initial=0)), self.n)
        if (r == t).any():
            bad = int(r[(r == t).argmax()])
            raise RatingError(f"self-rating rejected (node {bad})")
        if not np.isin(v, (-1, 0, 1)).all():
            raise RatingError("rating values must be -1, 0 or +1")
        self._csr.add_events(r, t, v)

    def reset(self) -> None:
        """Zero all counts in place (start of a new reputation period)."""
        self._csr.reset()

    def copy(self) -> "RatingMatrix":
        """Deep copy (used by tests to diff incremental vs. rebuilt state)."""
        out = RatingMatrix.__new__(RatingMatrix)
        out.n = self.n
        out._csr = self._csr.copy()
        return out

    # ------------------------------------------------------------------
    # aggregates (vectorized)
    # ------------------------------------------------------------------
    def received_total(self) -> np.ndarray:
        """``N_i`` for every node: total ratings received in the period."""
        return self._csr.received_total()

    def received_positive(self) -> np.ndarray:
        """``N+_i`` for every node."""
        return self._csr.received_positive()

    def received_negative(self) -> np.ndarray:
        """``N-_i`` for every node."""
        return self._csr.received_negative()

    def received_effective(self) -> np.ndarray:
        """Effective (±1) ratings received per node: ``N+_i + N-_i``."""
        return self._csr.received_effective()

    def reputation_sum(self) -> np.ndarray:
        """Summation reputation ``R_i = N+_i - N-_i`` for every node.

        This is the eBay/EigenTrust-style local reputation the paper's
        Formula (1) is derived for (Section IV-C).
        """
        return self._csr.received_positive() - self._csr.received_negative()

    # ------------------------------------------------------------------
    # pair-level accessors
    # ------------------------------------------------------------------
    def pair_count(self, rater: int, target: int) -> int:
        """``N_(target <- rater)``: ratings from ``rater`` about ``target``."""
        self._check_ids(rater, target)
        return self._csr.pair_triple(rater, target)[0]

    def pair_positive(self, rater: int, target: int) -> int:
        """Positive ratings from ``rater`` about ``target``."""
        self._check_ids(rater, target)
        return self._csr.pair_triple(rater, target)[1]

    def pair_negative(self, rater: int, target: int) -> int:
        """Negative ratings from ``rater`` about ``target``."""
        self._check_ids(rater, target)
        return self._csr.pair_triple(rater, target)[2]

    def row_entries(self, target: int, effective: bool = True
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries of ``target``'s row: ``(raters, counts, pos)``.

        Rater ids strictly ascending, zero entries elided.
        ``effective`` selects positives+negatives (default, the
        detectors' plane) vs. the raw totals.
        """
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        return self._csr.row_entries(target, effective)

    def entries(self, effective: bool = True
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All nonzero entries, COO-style: ``(targets, raters, counts, pos)``.

        Sorted by ``(target, rater)``; same count-plane selection as
        :meth:`row_entries`.  This is the whole-matrix bulk accessor
        the vectorized detection screen broadcasts over.
        """
        return self._csr.entries(effective)

    def all_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
        """Every stored entry: ``(targets, raters, counts, pos, neg)``.

        Sorted by ``(target, rater)``; ``counts`` includes neutrals, so
        an entry holding only neutral ratings appears here but not in
        ``entries(effective=True)``.
        """
        return self._csr.all_entries()

    # ------------------------------------------------------------------
    # dunder / comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        mine = self.all_entries()
        theirs = other.all_entries()
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("RatingMatrix is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = int(self._csr.received_total().sum())
        pos = int(self._csr.received_positive().sum())
        neg = int(self._csr.received_negative().sum())
        return (
            f"RatingMatrix(n={self.n}, events={total}, pos={pos}, "
            f"neg={neg})"
        )
