"""The basic ("Unoptimized") collusion detection method — Section IV-B.

For every high-reputed node ``n_i`` the manager walks the matrix row of
``n_i`` left-to-right.  A rater ``n_j`` is a *suspicious booster* when

1. ``R_j >= T_R`` — the rater is itself high-reputed (C1),
2. ``N_(i<-j) >= T_N`` — it rates ``n_i`` frequently (C4),
3. ``N+_(i<-j) / N_(i<-j) >= T_a`` — mostly positively (C3);

the deep check then *scans the entire row* to aggregate everyone else's
ratings and requires ``N+_(i<-others) / N_(i<-others) < T_b`` (C2).  If
that holds, the same conditions are evaluated in the symmetric
direction (target ``n_j``, rater ``n_i``); both passing flags the pair
(C5).  Checked pairs are marked so the ``(j, i)`` element is not
re-examined.

Multi-booster exclusion
-----------------------
The paper's text excludes exactly one rater when computing the
"everyone else" fraction ``b``.  A colluder with *two* boosters (its
pair partner plus a compromised pretrusted node — the Figure 11
scenario) then evades the check: excluding either booster leaves the
other inflating ``b``.  Since the paper reports Figure 11 succeeding,
the reproduction generalizes the exclusion to the full suspicious
booster set ``S`` (all raters passing conditions 1-3): ``b`` is
computed over raters outside ``S`` and each member of ``S`` is then
checked symmetrically.  With ``|S| = 1`` this is *exactly* the paper's
pairwise test.  Pass ``multi_booster_exclusion=False`` for the strict
single-exclusion variant.

Cost model (Proposition 4.1): for each of ``m`` high-reputed nodes, up
to ``n`` elements are checked and each deep check rescans ``n``
elements — **O(m n^2)**.  The implementation reads rows through the
nonzero-only :meth:`RatingMatrix.row_entries` accessor (so the
matrix is never densified) and memoizes each row and booster set
for the duration of one ``detect()`` pass — the symmetric re-check no
longer re-derives ``n_j``'s booster row per candidate pair.  The
:class:`OpCounter` still *accounts* the algorithm's nominal
operations: one ``element_check`` per matrix element visited and ``n``
``row_scan`` units per rater rescan, which is what Figure 13 compares.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.model import DetectionReport, PairEvidence, SuspectedPair
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter

__all__ = ["BasicCollusionDetector"]

_Row = Tuple[np.ndarray, np.ndarray, np.ndarray]


class BasicCollusionDetector:
    """Pair-collusion detection by exhaustive matrix scanning.

    Parameters
    ----------
    thresholds:
        The ``T_R / T_a / T_b / T_N`` bundle.
    ops:
        Operation counter (a fresh one is created if omitted).
    use_effective_counts:
        When true (default) frequencies and fractions are computed over
        *effective* ratings (positives + negatives), matching the
        two-valued assumption of Formula (1) so the basic and optimized
        methods see identical inputs.  Set false to count neutral
        ratings toward frequencies.
    cost_model:
        ``"literal"`` (default) charges the paper's stated cost — "in
        order to calculate N+_(i,-j) and N_(i,-j) **for each rater**
        n_j, each element in matrix line i should be scanned" — i.e.
        ``n`` row-scan units per rater per high-reputed node, the
        O(m n^2) behaviour of Proposition 4.1 and Figure 13.
        ``"gated"`` charges row scans only for raters that pass the
        cheap ``R_j``/``T_N``/``T_a`` gates (an obvious implementation
        optimization the paper does not take).  Detection *results* are
        identical under both models.
    multi_booster_exclusion:
        Exclude the whole suspicious booster set when computing ``b``
        (see module docstring).  Default true.
    """

    name = "basic"

    def __init__(
        self,
        thresholds: Optional[DetectionThresholds] = None,
        ops: Optional[OpCounter] = None,
        use_effective_counts: bool = True,
        cost_model: str = "literal",
        multi_booster_exclusion: bool = True,
    ):
        if cost_model not in ("literal", "gated"):
            raise DetectionError(f"unknown cost model {cost_model!r}")
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self.ops = ops if ops is not None else OpCounter()
        self.use_effective_counts = use_effective_counts
        self.cost_model = cost_model
        self.multi_booster_exclusion = multi_booster_exclusion

    # ------------------------------------------------------------------
    def _row(self, matrix: RatingMatrix, target: int,
             cache: Dict[int, _Row]) -> _Row:
        """``(raters, counts, positives)`` of ``target``'s row, memoized."""
        entry = cache.get(target)
        if entry is None:
            entry = matrix.row_entries(
                target, effective=self.use_effective_counts
            )
            cache[target] = entry
        return entry

    def _booster_set(
        self,
        matrix: RatingMatrix,
        target: int,
        high: np.ndarray,
        rows: Dict[int, _Row],
        boosters: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Raters of ``target`` passing the C1/C3/C4 booster conditions.

        Memoized per pass — the symmetric re-check hits the cache
        instead of re-deriving the partner's row per candidate pair.
        """
        cached = boosters.get(target)
        if cached is not None:
            return cached
        th = self.thresholds
        raters, cnt, pos = self._row(matrix, target, rows)
        if raters.size:
            # Entries elide zero counts, so the positive fraction needs
            # no divide-by-zero guard; self-columns cannot appear.
            mask = high[raters] & (cnt >= th.t_n) & ((pos / cnt) >= th.t_a)
            result = raters[mask]
        else:
            result = raters
        boosters[target] = result
        return result

    def _deep_check(
        self,
        matrix: RatingMatrix,
        node_total: np.ndarray,
        node_pos: np.ndarray,
        target: int,
        boosters: np.ndarray,
        focus: int,
        target_reputation: float,
        rows: Dict[int, _Row],
        charge: bool,
    ) -> Tuple[bool, PairEvidence]:
        """C2 check for ``target`` with the booster set excluded.

        ``focus`` is the booster the evidence record is written for.
        ``charge`` controls whether the gated cost model accounts the
        row scan (the literal model pre-charges every rater's rescan).
        """
        th = self.thresholds
        raters, cnt, pos = self._row(matrix, target, rows)
        if charge and self.cost_model == "gated":
            self.ops.add("row_scan", matrix.n)
        excl = boosters if self.multi_booster_exclusion else np.array([focus])
        idx = np.searchsorted(raters, excl)
        excl_total = int(cnt[idx].sum())
        excl_pos = int(pos[idx].sum())
        others_total = int(node_total[target]) - excl_total
        others_positive = int(node_pos[target]) - excl_pos
        k = int(np.searchsorted(raters, focus))
        freq = int(cnt[k])
        pos_f = int(pos[k])
        a = pos_f / freq if freq > 0 else float("nan")
        b = others_positive / others_total if others_total > 0 else float("nan")
        evidence = PairEvidence(
            rater=focus,
            target=target,
            frequency=freq,
            positive=pos_f,
            others_total=others_total,
            others_positive=others_positive,
            a=a,
            b=b,
            target_reputation=target_reputation,
        )
        passed = others_total > 0 and b < th.t_b
        return passed, evidence

    # ------------------------------------------------------------------
    def detect(
        self,
        matrix: RatingMatrix,
        reputation: Optional[np.ndarray] = None,
        include: Optional[np.ndarray] = None,
    ) -> DetectionReport:
        """Run one detection pass over ``matrix``.

        Parameters
        ----------
        matrix:
            Rating counts for the current period ``T``.
        reputation:
            Published reputation vector used for the ``T_R`` gate.
            Defaults to the matrix's own summation reputation — the
            standalone-detector configuration of the paper's Figure 8.
        include:
            Extra node ids to treat as high-reputed regardless of the
            gate.  A host system whose published reputation diverges
            from raw sums (EigenTrust amplification) passes its own
            above-threshold nodes here so they are always examined.

        Returns
        -------
        DetectionReport
            Flagged pairs with two-directional evidence.
        """
        n = matrix.n
        if reputation is None:
            reputation = matrix.reputation_sum().astype(float)
        else:
            reputation = np.asarray(reputation, dtype=float)
            if reputation.shape != (n,):
                raise DetectionError(
                    f"reputation vector has shape {reputation.shape}, expected ({n},)"
                )

        if self.use_effective_counts:
            node_total = matrix.received_effective()
        else:
            node_total = matrix.received_total()
        node_pos = matrix.received_positive()
        high = reputation >= self.thresholds.t_r
        if include is not None:
            ids = np.asarray(include, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise DetectionError(f"include ids outside universe of size {n}")
            high[ids] = True
        high_ids = np.flatnonzero(high)

        report = DetectionReport(method=self.name, examined_nodes=len(high_ids))
        before = self.ops.snapshot()
        checked: Set[Tuple[int, int]] = set()
        rows: Dict[int, _Row] = {}
        booster_memo: Dict[int, np.ndarray] = {}

        for i in high_ids:
            i = int(i)
            # The manager examines every element a_ij of the row: n - 1
            # element checks (self column excluded).
            self.ops.add("element_check", n - 1)
            if self.cost_model == "literal":
                # Paper Section IV-B: the a/b aggregates are recomputed by
                # rescanning the whole row for *each* rater — the O(m n^2)
                # cost Proposition 4.1 states and Figure 13 measures.
                self.ops.add("row_scan", (n - 1) * n)
            boosters_i = self._booster_set(matrix, i, high, rows, booster_memo)
            if boosters_i.size == 0:
                continue
            for j in boosters_i:
                j = int(j)
                key = (i, j) if i < j else (j, i)
                if key in checked:
                    continue
                checked.add(key)
                ok_ij, ev_ij = self._deep_check(
                    matrix, node_total, node_pos,
                    target=i, boosters=boosters_i, focus=j,
                    target_reputation=float(reputation[i]),
                    rows=rows, charge=True,
                )
                if not ok_ij:
                    continue
                # Symmetric re-check: is n_j's high reputation also mainly
                # caused by deviating frequent ratings that include n_i's?
                self.ops.add("element_check", 1)
                boosters_j = self._booster_set(matrix, j, high, rows, booster_memo)
                if i not in boosters_j:
                    continue
                ok_ji, ev_ji = self._deep_check(
                    matrix, node_total, node_pos,
                    target=j, boosters=boosters_j, focus=i,
                    target_reputation=float(reputation[j]),
                    rows=rows, charge=True,
                )
                if ok_ji:
                    report.add(SuspectedPair.of(i, j, ev_ji, ev_ij))

        report.operations = self.ops.diff(before)
        return report
