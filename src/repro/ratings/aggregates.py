"""Vectorized aggregate views over a :class:`RatingMatrix`.

These functions compute the quantities named in the paper's Table I for
*all* nodes / raters at once:

========  ==========================================================
``N_i``   total ratings received by node ``i`` in period ``T``
``a``     positive fraction of the ratings one rater gave a target
``b``     positive fraction of ratings from everyone *except* that rater
========  ==========================================================

The ``a``/``b`` computations are the heart of the basic detector's inner
loop; exposing them as whole-row broadcasts keeps the library code
vectorized even though the *algorithm* being reproduced is the paper's
explicit O(n) scan (whose cost we account separately via
:class:`repro.util.counters.OpCounter`).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.ratings.matrix import RatingMatrix

__all__ = [
    "NodeStats",
    "PairView",
    "node_stats",
    "pair_view",
    "positive_fraction_from",
    "positive_fraction_excluding",
]


@dataclass(frozen=True)
class NodeStats:
    """Per-node received-rating aggregates for one period ``T``."""

    total: np.ndarray        # N_i
    positive: np.ndarray     # N+_i
    negative: np.ndarray     # N-_i
    reputation: np.ndarray   # R_i = N+_i - N-_i

    def __len__(self) -> int:
        return len(self.total)


@dataclass(frozen=True)
class PairView:
    """The Table-I quantities for one (target, rater) pair.

    ``a`` / ``b`` are ``nan`` when their denominators are zero (the
    rater gave no ratings / nobody else rated the target) — detectors
    must treat ``nan`` as "condition not satisfiable".
    """

    target: int
    rater: int
    pair_total: int          # N_(target <- rater)
    pair_positive: int       # N+_(target <- rater)
    other_total: int         # N_(target <- everyone but rater)
    other_positive: int      # N+ of same
    a: float                 # pair_positive / pair_total
    b: float                 # other_positive / other_total


def node_stats(matrix: RatingMatrix) -> NodeStats:
    """All per-node aggregates in one pass of row reductions."""
    total = matrix.received_total()
    positive = matrix.received_positive()
    negative = matrix.received_negative()
    return NodeStats(
        total=total,
        positive=positive,
        negative=negative,
        reputation=positive - negative,
    )


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``num/den`` with 0-denominators mapping to ``nan``."""
    out = np.full(np.broadcast(num, den).shape, np.nan, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


def pair_view(matrix: RatingMatrix, rater: int, target: int) -> PairView:
    """Exact Table-I view for a single (target, rater) pair."""
    pair_total = matrix.pair_count(rater, target)
    pair_positive = matrix.pair_positive(rater, target)
    _, row_counts, row_pos = matrix.row_entries(target, effective=False)
    other_total = int(row_counts.sum()) - pair_total
    other_positive = int(row_pos.sum()) - pair_positive
    a = pair_positive / pair_total if pair_total > 0 else float("nan")
    b = other_positive / other_total if other_total > 0 else float("nan")
    return PairView(
        target=target,
        rater=rater,
        pair_total=pair_total,
        pair_positive=pair_positive,
        other_total=other_total,
        other_positive=other_positive,
        a=a,
        b=b,
    )


def positive_fraction_from(matrix: RatingMatrix, target: int) -> np.ndarray:
    """Vector of ``a_j`` for every rater ``j`` of ``target``.

    ``a_j`` is the positive fraction of ratings from ``j`` about
    ``target``; ``nan`` where ``j`` gave no ratings.
    """
    raters, counts, pos = matrix.row_entries(target, effective=False)
    out = np.full(matrix.n, np.nan)
    out[raters] = pos.astype(float) / counts.astype(float)
    return out


def positive_fraction_excluding(matrix: RatingMatrix, target: int) -> np.ndarray:
    """Vector of ``b_j`` for every rater ``j`` of ``target``.

    ``b_j`` is the positive fraction of ratings about ``target`` from
    everyone *except* ``j`` — computed for all ``j`` simultaneously via
    a broadcast of the row totals (one subtraction per element instead
    of the O(n^2) rescan the basic algorithm performs).
    """
    raters, counts, pos = matrix.row_entries(target, effective=False)
    other_counts = np.full(matrix.n, counts.sum())
    other_pos = np.full(matrix.n, pos.sum())
    other_counts[raters] -= counts
    other_pos[raters] -= pos
    return _safe_div(other_pos.astype(float), other_counts.astype(float))
