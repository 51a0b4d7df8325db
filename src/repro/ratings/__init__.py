"""Rating substrate: events, append-only ledger, and pair-count matrices.

This package implements "system S1" from DESIGN.md — the data layer the
paper's reputation manager keeps: every rating is an event
``(rater, target, value, time)`` with value in {-1, 0, +1}; the manager
maintains the n x n counts ``N_(i,j)`` / ``N+_(i,j)`` that both
collusion detectors consume.

Orientation convention (used consistently across the library)
--------------------------------------------------------------
The paper's Table I notation is ambiguous about direction, so the code
fixes one convention: matrices are indexed ``[target, rater]``.
Entry ``[i, j]`` is the number of ratings *about* node ``i`` *from*
node ``j`` — i.e. row ``i`` collects everything node ``i`` received.
"""

from repro.ratings.events import Rating, RatingValue, rating_from_score
from repro.ratings.io import (
    append_jsonl,
    iter_jsonl,
    load_csv,
    load_jsonl,
    load_npz,
    save_csv,
    save_npz,
)
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix
from repro.ratings.aggregates import (
    NodeStats,
    PairView,
    node_stats,
    pair_view,
    positive_fraction_from,
    positive_fraction_excluding,
)

__all__ = [
    "Rating",
    "RatingValue",
    "rating_from_score",
    "RatingLedger",
    "save_csv",
    "load_csv",
    "save_npz",
    "load_npz",
    "append_jsonl",
    "iter_jsonl",
    "load_jsonl",
    "RatingMatrix",
    "NodeStats",
    "PairView",
    "node_stats",
    "pair_view",
    "positive_fraction_from",
    "positive_fraction_excluding",
]
