"""The optimized collusion detection method — Section IV-C.

Identical collusion model as the basic method, but the deep C2 check is
replaced by the Formula (2) screen, which needs only the node's total
counts and reputation plus the booster pair counts — no rescan of the
other raters.  Complexity drops to **O(m n)** (Proposition 4.2): for
each of ``m`` high-reputed nodes the manager inspects each rater's
matrix element once (frequency and positive fraction are both stored in
the element ``a_ij = <ID, R, N_(i,j), N+_(i,j)>``) and evaluates the
closed-form bounds once.

Multi-booster exclusion (see :mod:`repro.core.basic`): the suspicious
booster set ``S`` of a target is every high-reputed rater with
frequency ``>= T_N`` and positive fraction ``>= T_a``; the screen is
evaluated with ``F = sum of S's ratings``.  Formula (1) holds verbatim
for the aggregated split (``a`` is then S's combined positive fraction,
which is ``>= T_a`` because every member's is), so the derivation of
Formula (2) is unchanged.  With ``|S| = 1`` this is exactly the paper's
screen.

Implementation note: the detection pass is **batch-vectorized over the
whole matrix**, not per node.  One call to
:meth:`RatingMatrix.entries` yields every nonzero effective element
COO-style; the C1/C3/C4 booster mask for *all* high rows, the booster
aggregates, and the Formula (2) band membership are then single
whole-array broadcasts.  Per-pair Python survives only for the
symmetric re-check and evidence assembly of the (rare) candidates that
pass the screen, and the booster rows consulted there are memoized
from the broadcast pass rather than re-derived per ``(i, j)``.
Because the accessor works on nonzero entries, the pass costs
O(E + candidates) wall-clock for E stored edges — no ``(n, n)`` plane
is ever materialized.

The operation counter is charged the *algorithm's nominal* costs, not
the vectorized implementation's: one ``freq_check`` per rater element
per high node (including the symmetric re-derivation of a partner's
booster row, which the memo makes free in wall-clock but which the
sequential algorithm pays for), and one ``formula_eval`` per screen
evaluation — so Proposition 4.2's O(m·n) growth stays measurable and
the growth-ratio gate keeps verifying it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.formula import formula2_screen
from repro.core.model import DetectionReport, PairEvidence, SuspectedPair
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter

__all__ = ["OptimizedCollusionDetector", "ScreenPass"]


#: ``(targets, raters, effective, positive)`` — a matrix's nonzero
#: effective entries, COO-style (:meth:`RatingMatrix.entries`).
Entries = Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64],
                npt.NDArray[np.int64], npt.NDArray[np.int64]]


class ScreenPass:
    """Precomputed whole-matrix screen state for one detection pass.

    Holds the booster entries (the C1/C3/C4 mask applied to every
    nonzero effective element at once), their per-target slices, and
    the Formula (2) band verdicts — everything the candidate loop
    consults, so the loop never touches matrix storage again.
    :meth:`repro.rings.graph.SuspectGraph.from_matrix` runs the same
    pass and reads its screened legs off ``b_band``.
    """

    __slots__ = ("hot_pairs", "b_targets", "b_raters", "b_eff", "b_pos",
                 "b_band", "band_by_target", "band_by_entry",
                 "stats_by_entry", "_slice_cache")

    def __init__(self, entries: Entries, high: npt.NDArray[np.bool_],
                 node_eff: npt.NDArray[np.int64],
                 sum_reputation: npt.NDArray[np.float64],
                 thresholds: DetectionThresholds,
                 multi_booster_exclusion: bool) -> None:
        th = thresholds
        e_t, e_r, e_eff, e_pos = entries
        # C1 (both ends high) + C4 (frequency): the pairs a streaming
        # screen holds hot and checks; then C3 (positive fraction) for
        # every high row in one broadcast.  e_eff > 0 by construction so
        # the fraction needs no NaN guard.
        if e_t.size:
            hot = high[e_t] & high[e_r] & (e_eff >= th.t_n)
            mask = hot & ((e_pos / e_eff) >= th.t_a)
        else:
            hot = mask = np.zeros(0, dtype=bool)
        self.hot_pairs = int(np.count_nonzero(hot))
        self.b_targets = e_t[mask]
        self.b_raters = e_r[mask]
        self.b_eff = e_eff[mask]
        self.b_pos = e_pos[mask]
        self._slice_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        # Formula (2) band membership, broadcast over all screened rows;
        # ``b_band`` repeats each verdict on its booster entries.
        self.b_band: npt.NDArray[np.bool_] = np.zeros(self.b_targets.size,
                                                      dtype=bool)
        self.band_by_target: Dict[int, bool] = {}
        self.band_by_entry: Dict[Tuple[int, int], bool] = {}
        self.stats_by_entry: Dict[Tuple[int, int], Tuple[int, int]] = {
            (int(t), int(r)): (int(f), int(p))
            for t, r, f, p in zip(self.b_targets, self.b_raters,
                                  self.b_eff, self.b_pos)
        }
        if self.b_targets.size == 0:
            return
        if multi_booster_exclusion:
            uniq_t, seg_start = np.unique(self.b_targets, return_index=True)
            f_sum = np.add.reduceat(self.b_eff, seg_start)
            band = formula2_screen(
                reputation=sum_reputation[uniq_t],
                n_total=node_eff[uniq_t].astype(float),
                pair_count=f_sum.astype(float),
                t_a=th.t_a, t_b=th.t_b,
            )
            self.b_band = np.repeat(
                band, np.diff(np.append(seg_start, self.b_targets.size)))
            self.band_by_target = {
                int(t): bool(v) for t, v in zip(uniq_t, band)
            }
        else:
            self.b_band = np.asarray(formula2_screen(
                reputation=sum_reputation[self.b_targets],
                n_total=node_eff[self.b_targets].astype(float),
                pair_count=self.b_eff.astype(float),
                t_a=th.t_a, t_b=th.t_b,
            ), dtype=bool)
            self.band_by_entry = {
                (int(t), int(r)): bool(v)
                for t, r, v in zip(self.b_targets, self.b_raters, self.b_band)
            }

    def boosters_of(self, target: int
                    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """``(raters, frequencies)`` of ``target``'s booster set.

        Memoized per pass: the symmetric re-check reads the partner's
        row here instead of re-deriving it per candidate pair.
        """
        cached = self._slice_cache.get(target)
        if cached is None:
            lo = int(np.searchsorted(self.b_targets, target, side="left"))
            hi = int(np.searchsorted(self.b_targets, target, side="right"))
            cached = (self.b_raters[lo:hi], self.b_eff[lo:hi])
            self._slice_cache[target] = cached
        return cached


class OptimizedCollusionDetector:
    """Pair-collusion detection via the Formula (2) screen.

    Parameters mirror :class:`repro.core.basic.BasicCollusionDetector`
    (without the cost-model switch — there is no rescan to model).

    The screen is evaluated against the *summation* reputation
    ``R_i = N+_i - N-_i`` computed from the matrix (the identity's
    domain), while the ``T_R`` high-reputed gate uses the host system's
    published ``reputation`` vector when one is provided — the same
    split the paper makes when bolting the detector onto EigenTrust.
    """

    name = "optimized"

    def __init__(
        self,
        thresholds: Optional[DetectionThresholds] = None,
        ops: Optional[OpCounter] = None,
        multi_booster_exclusion: bool = True,
    ) -> None:
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self.ops = ops if ops is not None else OpCounter()
        self.multi_booster_exclusion = multi_booster_exclusion

    # ------------------------------------------------------------------
    @staticmethod
    def _evidence(
        screen: ScreenPass,
        node_eff: npt.NDArray[np.int64],
        node_pos: npt.NDArray[np.int64],
        rater: int,
        target: int,
        target_reputation: float,
    ) -> PairEvidence:
        """Assemble audit evidence (not part of the algorithm's cost)."""
        freq, pos = screen.stats_by_entry[(target, rater)]
        others_total = int(node_eff[target]) - freq
        others_positive = int(node_pos[target]) - pos
        return PairEvidence(
            rater=rater,
            target=target,
            frequency=freq,
            positive=pos,
            others_total=others_total,
            others_positive=others_positive,
            a=pos / freq if freq > 0 else float("nan"),
            b=others_positive / others_total if others_total > 0 else float("nan"),
            target_reputation=target_reputation,
        )

    # ------------------------------------------------------------------
    def detect(
        self,
        matrix: RatingMatrix,
        reputation: Optional[npt.ArrayLike] = None,
        include: Optional[npt.ArrayLike] = None,
    ) -> DetectionReport:
        """Run one detection pass over ``matrix``.

        See :meth:`BasicCollusionDetector.detect` for the parameter
        semantics (including ``include``); results carry the same
        evidence structure so reports from both methods are directly
        comparable.
        """
        n = matrix.n
        th = self.thresholds
        node_pos = matrix.received_positive()
        node_neg = matrix.received_negative()
        node_eff = node_pos + node_neg
        sum_reputation = (node_pos - node_neg).astype(float)
        if reputation is None:
            gate_reputation = sum_reputation
        else:
            gate_reputation = np.asarray(reputation, dtype=float)
            if gate_reputation.shape != (n,):
                raise DetectionError(
                    f"reputation vector has shape {gate_reputation.shape}, expected ({n},)"
                )

        high = gate_reputation >= th.t_r
        if include is not None:
            ids = np.asarray(include, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise DetectionError(f"include ids outside universe of size {n}")
            high[ids] = True
        high_ids = np.flatnonzero(high)
        report = DetectionReport(method=self.name, examined_nodes=len(high_ids))
        before = self.ops.snapshot()

        # Nominal cost of the broadcast booster mask: the sequential
        # algorithm inspects the n - 1 rater elements of each high row.
        if high_ids.size:
            self.ops.add("freq_check", int(high_ids.size) * (n - 1))

        screen = ScreenPass(matrix.entries(effective=True), high, node_eff,
                            sum_reputation, th, self.multi_booster_exclusion)
        multi = self.multi_booster_exclusion
        resolved: Set[Tuple[int, int]] = set()

        for i in high_ids:
            i = int(i)
            raters_i, _eff_i = screen.boosters_of(i)
            if raters_i.size == 0:
                continue
            if multi:
                self.ops.add("formula_eval", 1)
                if not screen.band_by_target[i]:
                    continue
            for j in raters_i:
                j = int(j)
                if not multi:
                    self.ops.add("formula_eval", 1)
                    if not screen.band_by_entry[(i, j)]:
                        continue
                key = (i, j) if i < j else (j, i)
                if key in resolved:
                    continue
                resolved.add(key)
                # Symmetric direction: is n_j's reputation also inside
                # the Formula (2) band for its own booster set
                # containing n_i?  The nominal algorithm re-derives
                # n_j's booster row (n - 1 element inspections); the
                # pass memo makes the lookup O(1) in wall-clock.
                self.ops.add("freq_check", n - 1)
                raters_j, _eff_j = screen.boosters_of(j)
                k = int(np.searchsorted(raters_j, i))
                if k >= raters_j.size or int(raters_j[k]) != i:
                    continue
                self.ops.add("formula_eval", 1)
                symmetric_ok = (screen.band_by_target[j] if multi
                                else screen.band_by_entry[(j, i)])
                if not symmetric_ok:
                    continue
                report.add(
                    SuspectedPair.of(
                        i,
                        j,
                        self._evidence(screen, node_eff, node_pos,
                                       rater=i, target=j,
                                       target_reputation=float(gate_reputation[j])),
                        self._evidence(screen, node_eff, node_pos,
                                       rater=j, target=i,
                                       target_reputation=float(gate_reputation[i])),
                    )
                )

        report.operations = self.ops.diff(before)
        return report
