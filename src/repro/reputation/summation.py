"""eBay / EigenTrust-style summation reputation.

"A node's final reputation is the sum of all its received reputation
evaluation values" (paper Section IV-A).  This is the local model the
paper's Formula (1) identity is derived for, so the collusion detectors
use it internally for the Formula-(2) screen regardless of which system
publishes the user-facing reputation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import numpy.typing as npt

from typing import Dict, List

from repro.errors import RatingError, UnknownNodeError
from repro.ratings.matrix import RatingMatrix
from repro.reputation.base import ReputationSystem
from repro.util.counters import OpCounter
from repro.util.validation import check_int_range

__all__ = ["SummationReputation", "SummationState"]


class SummationReputation(ReputationSystem):
    """``R_i = N+_i - N-_i`` (neutral ratings contribute zero).

    Parameters
    ----------
    normalize:
        When true, the vector is divided by the total absolute mass so
        values are comparable across periods of different activity
        (used when mixing with normalized systems in reports).  The
        default is the paper's raw sum.
    """

    name = "summation"

    def __init__(self, normalize: bool = False, ops: Optional[OpCounter] = None):
        super().__init__(ops)
        self.normalize = normalize

    def compute(self, matrix: RatingMatrix) -> np.ndarray:
        rep = matrix.reputation_sum().astype(float)
        # one add per node pair cell touched: two row reductions over n^2 cells
        self.ops.add("sum_reduce", 2 * matrix.n * matrix.n)
        if self.normalize:
            mass = np.abs(rep).sum()
            if mass > 0:
                rep = rep / mass
            self.ops.add("normalize", matrix.n)
        return rep


class SummationState:
    """Incrementally-maintained summation reputation, ``R_i = N+_i - N-_i``.

    :class:`SummationReputation` recomputes the vector from a full
    count matrix each period — the right shape for offline analysis but
    O(n^2) per refresh.  A live service ingesting one rating at a time
    wants O(1) updates instead; this accumulator keeps the per-node
    positive/negative totals and exposes the same vector at any moment.

    The state is *mergeable* (element-wise sum) and JSON-serializable,
    which is exactly what a target-partitioned deployment needs: each
    shard accumulates the totals for the targets it owns, and the
    coordinator folds the shard vectors together (or snapshots them for
    crash recovery).  No locking is done here — callers confine each
    instance to one thread (the service's shard workers do).
    """

    __slots__ = ("n", "_pos", "_neg")

    def __init__(self, n: int):
        check_int_range("n", n, 1)
        self.n = n
        self._pos = np.zeros(n, dtype=np.int64)
        self._neg = np.zeros(n, dtype=np.int64)

    def observe(self, target: int, value: int, count: int = 1) -> None:
        """Fold ``count`` identical ratings of ``target`` in — O(1)."""
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        if value not in (-1, 0, 1):
            raise RatingError(f"rating value must be -1, 0 or +1, got {value!r}")
        if count < 0:
            raise RatingError(f"count must be non-negative, got {count}")
        if value == 1:
            self._pos[target] += count
        elif value == -1:
            self._neg[target] += count

    def reputation(self) -> np.ndarray:
        """The current summation vector (fresh copy)."""
        return (self._pos - self._neg).astype(float)

    def reputation_of(self, node: int) -> float:
        if not 0 <= node < self.n:
            raise UnknownNodeError(node, self.n)
        return float(self._pos[node] - self._neg[node])

    def merge(self, other: "SummationState") -> None:
        """Element-wise fold of another accumulator (shard -> global)."""
        if other.n != self.n:
            raise RatingError(
                f"cannot merge states of different universes ({other.n} != {self.n})"
            )
        self._pos += other._pos
        self._neg += other._neg

    def reset(self) -> None:
        self._pos[:] = 0
        self._neg[:] = 0

    # -- durability ----------------------------------------------------
    def export_state(self) -> Dict[str, List[int]]:
        """JSON-serializable totals (deterministic)."""
        return {
            "n": self.n,
            "pos": [int(v) for v in self._pos],
            "neg": [int(v) for v in self._neg],
        }

    def export_arrays(self) -> Dict[str, npt.NDArray[np.int64]]:
        """The totals as ``int64`` arrays — the binary-image counterpart
        of :meth:`export_state` (see ``service/snapshot.py``)."""
        return {"pos": self._pos.copy(), "neg": self._neg.copy()}

    @classmethod
    def from_arrays(cls, n: int, pos: npt.NDArray[np.int64],
                    neg: npt.NDArray[np.int64]) -> "SummationState":
        """Rebuild from (possibly read-only memory-mapped) arrays."""
        out = cls(n)
        if pos.shape != (n,) or neg.shape != (n,):
            raise RatingError("summation state arrays have wrong shape")
        out._pos[:] = pos
        out._neg[:] = neg
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SummationState(n={self.n}, mass={int(self._pos.sum() + self._neg.sum())})"
