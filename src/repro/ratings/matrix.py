"""Pair-count rating matrix — the manager's "n x n matrix".

The paper's reputation manager "builds an n x n matrix … [whose element]
records the reputation ratings" (Section IV-B).  :class:`RatingMatrix`
is that structure: the total / positive / negative rating counts for
every ``[target, rater]`` pair in the current reputation period ``T``.

Storage is per-target compressed rows (:class:`CsrRows`: a CSR layout
split row by row, so incremental updates never rewrite the whole
structure).  Memory is O(E) for E distinct (target, rater) edges — real
rating graphs are sparse, each rater rating only a subset of the nodes.
No detector needs an ``(n, n)`` plane: Proposition 4.2's screen reads
per-node totals and one pair count per stored entry, which the
``received_*`` aggregates, :meth:`RatingMatrix.row_entries` and
:meth:`RatingMatrix.entries` provide.

Performance notes
-----------------
* ``add`` binary-searches one row and bumps or inserts the element
  (O(row length)); bulk ``add_events`` groups the batch by target and
  merges each touched row once, so ingestion never loops per event.
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

from typing import List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import RatingError, UnknownNodeError
from repro.util.validation import check_int_range

__all__ = ["CsrRows", "RatingMatrix"]

#: Concrete array type of every stored plane/aggregate: int64 counts.
IntArray = npt.NDArray[np.int64]

_EMPTY_I64: IntArray = np.empty(0, dtype=np.int64)


class CsrRows:
    """Per-target compressed rows — CSR split row by row.

    Each target row is four parallel arrays ``(raters, counts, pos,
    neg)`` with ``raters`` strictly ascending; an absent row is the
    all-zero row.  Arguments are pre-validated by :class:`RatingMatrix`.
    """

    name = "csr"

    __slots__ = ("n", "_rows", "_node_total", "_node_pos", "_node_neg")

    def __init__(self, n: int) -> None:
        self.n = n
        # target -> [raters, counts, pos, neg] or None (all-zero row)
        self._rows: List[Optional[List[IntArray]]] = [None] * n
        self._node_total = np.zeros(n, dtype=np.int64)
        self._node_pos = np.zeros(n, dtype=np.int64)
        self._node_neg = np.zeros(n, dtype=np.int64)

    # mutation -----------------------------------------------------------
    def add(self, rater: int, target: int, value: int, count: int) -> None:
        if count == 0:
            return
        row = self._rows[target]
        if row is None:
            idx = np.array([rater], dtype=np.int64)
            cnt = np.array([count], dtype=np.int64)
            pos = np.array([count if value == 1 else 0], dtype=np.int64)
            neg = np.array([count if value == -1 else 0], dtype=np.int64)
            self._rows[target] = [idx, cnt, pos, neg]
        else:
            idx = row[0]
            k = int(np.searchsorted(idx, rater))
            if k < idx.size and idx[k] == rater:
                row[1][k] += count
                if value == 1:
                    row[2][k] += count
                elif value == -1:
                    row[3][k] += count
            else:
                row[0] = np.insert(idx, k, rater)
                row[1] = np.insert(row[1], k, count)
                row[2] = np.insert(row[2], k, count if value == 1 else 0)
                row[3] = np.insert(row[3], k, count if value == -1 else 0)
        self._node_total[target] += count
        if value == 1:
            self._node_pos[target] += count
        elif value == -1:
            self._node_neg[target] += count

    def add_events(self, raters: IntArray, targets: IntArray,
                   values: IntArray) -> None:
        n = self.n
        # One merged delta per distinct (target, rater) pair: sort by a
        # packed key, then segment-reduce each plane.
        keys = targets * np.int64(n) + raters
        uniq, inverse = np.unique(keys, return_inverse=True)
        cnt = np.bincount(inverse, minlength=uniq.size).astype(np.int64)
        pos = np.bincount(inverse, weights=(values == 1),
                          minlength=uniq.size).astype(np.int64)
        neg = np.bincount(inverse, weights=(values == -1),
                          minlength=uniq.size).astype(np.int64)
        d_targets = uniq // n
        d_raters = uniq % n
        # Merge per touched target; uniq is sorted so targets appear in
        # contiguous ascending runs.
        boundaries = np.flatnonzero(np.diff(d_targets)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [uniq.size]))
        for s, e in zip(starts, ends):
            self._merge_row(int(d_targets[s]), d_raters[s:e],
                            cnt[s:e], pos[s:e], neg[s:e])
        self._node_total += np.bincount(targets, minlength=n).astype(np.int64)
        self._node_pos += np.bincount(
            targets[values == 1], minlength=n).astype(np.int64)
        self._node_neg += np.bincount(
            targets[values == -1], minlength=n).astype(np.int64)

    def _merge_row(self, target: int, raters: IntArray, cnt: IntArray,
                   pos: IntArray, neg: IntArray) -> None:
        row = self._rows[target]
        if row is None:
            self._rows[target] = [raters.copy(), cnt.copy(),
                                  pos.copy(), neg.copy()]
            return
        old_idx = row[0]
        merged = np.union1d(old_idx, raters)
        new_cnt = np.zeros(merged.size, dtype=np.int64)
        new_pos = np.zeros(merged.size, dtype=np.int64)
        new_neg = np.zeros(merged.size, dtype=np.int64)
        old_at = np.searchsorted(merged, old_idx)
        new_cnt[old_at] = row[1]
        new_pos[old_at] = row[2]
        new_neg[old_at] = row[3]
        add_at = np.searchsorted(merged, raters)
        new_cnt[add_at] += cnt
        new_pos[add_at] += pos
        new_neg[add_at] += neg
        self._rows[target] = [merged, new_cnt, new_pos, new_neg]

    def reset(self) -> None:
        self._rows = [None] * self.n
        self._node_total[:] = 0
        self._node_pos[:] = 0
        self._node_neg[:] = 0

    def copy(self) -> "CsrRows":
        out = CsrRows.__new__(CsrRows)
        out.n = self.n
        out._rows = [
            None if row is None else [a.copy() for a in row]
            for row in self._rows
        ]
        out._node_total = self._node_total.copy()
        out._node_pos = self._node_pos.copy()
        out._node_neg = self._node_neg.copy()
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
        row = self._rows[target]
        if row is None:
            return 0, 0, 0
        idx = row[0]
        k = int(np.searchsorted(idx, rater))
        if k >= idx.size or idx[k] != rater:
            return 0, 0, 0
        return int(row[1][k]), int(row[2][k]), int(row[3][k])

    def row_entries(self, target: int, effective: bool = True
                    ) -> Tuple[IntArray, IntArray, IntArray]:
        row = self._rows[target]
        if row is None:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        if effective:
            sel = row[2] + row[3]
        else:
            sel = row[1]
        mask = sel != 0
        if mask.all():
            return row[0], sel, row[2]
        return row[0][mask], sel[mask], row[2][mask]

    def entries(self, effective: bool = True
                ) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
        t_parts: List[IntArray] = []
        r_parts: List[IntArray] = []
        c_parts: List[IntArray] = []
        p_parts: List[IntArray] = []
        for target, row in enumerate(self._rows):
            if row is None:
                continue
            idx, sel, pos = self.row_entries(target, effective)
            if idx.size == 0:
                continue
            t_parts.append(np.full(idx.size, target, dtype=np.int64))
            r_parts.append(idx)
            c_parts.append(sel)
            p_parts.append(pos)
        if not t_parts:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
        return (np.concatenate(t_parts), np.concatenate(r_parts),
                np.concatenate(c_parts), np.concatenate(p_parts))

    def all_entries(self) -> Tuple[IntArray, IntArray, IntArray,
                                   IntArray, IntArray]:
        t_parts: List[IntArray] = []
        parts: List[List[IntArray]] = [[], [], [], []]
        for target, row in enumerate(self._rows):
            if row is None:
                continue
            t_parts.append(np.full(row[0].size, target, dtype=np.int64))
            for plane, out in zip(row, parts):
                out.append(plane)
        if not t_parts:
            return (_EMPTY_I64,) * 5
        return (np.concatenate(t_parts),
                np.concatenate(parts[0]), np.concatenate(parts[1]),
                np.concatenate(parts[2]), np.concatenate(parts[3]))


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
