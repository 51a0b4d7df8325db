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
whole-array broadcasts.  The symmetric re-check is a join: the sorted
``(target, rater)`` keys of the booster entries are searched for their
transposes, so a pair is mutual when both legs are booster entries and
flagged when both legs are in band.  Per-pair Python survives only for
the evidence of the (rare) flagged pairs.  Because the accessor works
on nonzero entries, the pass costs O(E + B log B) wall-clock for E
stored edges and B booster entries — no ``(n, n)`` plane is ever
materialized.

The operation counter is charged the *algorithm's nominal* costs, not
the vectorized implementation's, computed from the joined arrays: one
``freq_check`` per rater element per high node, plus ``n - 1`` for the
symmetric re-derivation of a partner's booster row each time the
sequential loop resolves a pair (at the pair's first in-band entry in
``(target, rater)`` order), and one ``formula_eval`` per screen
evaluation — so Proposition 4.2's O(m·n) growth stays measurable and
the growth-ratio gate keeps verifying it.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    nonzero effective element at once, in ``(target, rater)`` order)
    and their Formula (2) band verdicts — everything the candidate join
    consults, so the join never touches matrix storage again.
    :meth:`repro.rings.graph.SuspectGraph.from_matrix` runs the same
    pass and reads its screened legs off ``b_band``.
    """

    __slots__ = ("hot_pairs", "b_targets", "b_raters", "b_eff", "b_pos",
                 "b_band", "formula_evals")

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

        # Formula (2) band membership, broadcast over all screened rows;
        # ``b_band`` repeats each verdict on its booster entries.  The
        # sequential screen evaluates the formula once per booster set
        # (multi-booster exclusion) or once per booster.
        self.b_band: npt.NDArray[np.bool_] = np.zeros(self.b_targets.size,
                                                      dtype=bool)
        self.formula_evals = int(self.b_targets.size)
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
            self.formula_evals = int(uniq_t.size)
        else:
            self.b_band = np.asarray(formula2_screen(
                reputation=sum_reputation[self.b_targets],
                n_total=node_eff[self.b_targets].astype(float),
                pair_count=self.b_eff.astype(float),
                t_a=th.t_a, t_b=th.t_b,
            ), dtype=bool)


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
        entry: int,
        node_eff: npt.NDArray[np.int64],
        node_pos: npt.NDArray[np.int64],
        gate_reputation: npt.NDArray[np.float64],
    ) -> PairEvidence:
        """Audit evidence of one booster entry (not part of the
        algorithm's cost)."""
        target = int(screen.b_targets[entry])
        freq = int(screen.b_eff[entry])
        pos = int(screen.b_pos[entry])
        others_total = int(node_eff[target]) - freq
        others_positive = int(node_pos[target]) - pos
        return PairEvidence(
            rater=int(screen.b_raters[entry]),
            target=target,
            frequency=freq,
            positive=pos,
            others_total=others_total,
            others_positive=others_positive,
            a=pos / freq if freq > 0 else float("nan"),
            b=others_positive / others_total if others_total > 0 else float("nan"),
            target_reputation=float(gate_reputation[target]),
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
        b_t, b_r, band = screen.b_targets, screen.b_raters, screen.b_band
        if b_t.size:
            self.ops.add("formula_eval", screen.formula_evals)
            # Join each booster entry (i <- j) with its transpose
            # (j <- i); ``keys`` is sorted because the booster entries
            # are in (target, rater) order.
            keys = b_t * n + b_r
            transposed = b_r * n + b_t
            rev = np.minimum(np.searchsorted(keys, transposed), keys.size - 1)
            mutual = keys[rev] == transposed
            mutual_band = band & mutual & band[rev]
            # The nominal loop walks the in-band entries in (target,
            # rater) order and resolves each unordered pair once, at its
            # first entry: it re-derives the partner's booster row
            # (n - 1 element inspections), then evaluates the partner's
            # screen if the partner boosts back.
            resolved = band & ~(mutual_band & (b_r < b_t))
            self.ops.add("freq_check", (n - 1) * int(np.count_nonzero(resolved)))
            self.ops.add("formula_eval",
                         int(np.count_nonzero(resolved & mutual)))
            for k in np.flatnonzero(mutual_band & (b_t < b_r)).tolist():
                report.add(SuspectedPair.of(
                    int(b_t[k]),
                    int(b_r[k]),
                    self._evidence(screen, int(rev[k]), node_eff, node_pos,
                                   gate_reputation),
                    self._evidence(screen, k, node_eff, node_pos,
                                   gate_reputation),
                ))

        report.operations = self.ops.diff(before)
        return report
