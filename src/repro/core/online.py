"""Online (streaming) collusion detection.

The batch detectors take a complete period matrix; a real reputation
manager receives ratings one at a time.  :class:`OnlineCollusionDetector`
is the streaming formulation of the optimized method:

* :meth:`observe` ingests one rating in O(1): per-pair and per-node
  counters update, the pair enters the *hot set* the moment its
  frequency crosses ``T_N``, and the target's Formula-(2) screen terms
  are re-checked in O(1) against the last evaluation;
* :meth:`end_period` evaluates the screen **only over the pairs whose
  screen state could have moved** since the last evaluation — O(touched
  pairs), independent of both n and the total hot-set size — and resets
  the period state.

Detection output is exactly equal to running
:class:`~repro.core.optimized.OptimizedCollusionDetector` on the same
period's matrix (property-tested), because the booster-set definition,
screen and symmetric check are shared; only the iteration order changes
from "every rater of every high node" to "touched hot pairs only".

Pair-incremental screening
--------------------------
Every evaluation caches, per screened target, the three ingredients of
the Formula-(2) band test (all integers, so the incremental updates are
exact, not approximate):

* the *booster candidate set* ``B_i`` — hot raters of ``i`` that are
  high-reputed (C1) with positive fraction >= ``T_a`` (C3) and
  frequency >= ``T_N`` (C4);
* ``F_i`` — the summed effective frequency over ``B_i``;
* the band verdict ``lower(F_i) <= R_i < upper(F_i)``.

A later :meth:`observe` touches exactly one ``(target, rater)`` pair,
so only that pair's membership in ``B_target`` and the target's
``(R, N, F)`` terms can move — an O(1) update.  The observe *enqueues*
the target's pairs for re-screening only when the recomputed band
verdict or the membership actually flipped; a touched target whose
band did not flip merely re-emits its cached verdicts with refreshed
evidence at the next evaluation, with no screen charges at all.
Targets untouched since the last evaluation replay their cached
half-verdicts.  Any change to the *high* vector re-screens exactly the
targets holding a hot pair with a flipped rater (plus targets whose own
gate entry flipped) — not the whole hot set.

:meth:`full_screen` is the escape hatch: it drops every incremental
structure and re-screens all hot targets from the raw counters —
the reference the incremental screen is tested and benchmarked
against (``bench_incremental_screen``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, cast

import numpy as np
import numpy.typing as npt

from repro.core.model import (
    DetectionReport,
    HalfVerdict,
    PairEvidence,
    join_half_verdicts,
)
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError, RatingError, UnknownNodeError
from repro.util.counters import OpCounter
from repro.util.validation import check_int_range

__all__ = ["OnlineCollusionDetector"]

FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]
IntArray = npt.NDArray[np.int64]


def _screen_scalar(reputation: float, n_total: float, pair_count: float,
                   t_a: float, t_b: float) -> bool:
    """Scalar Formula-(2) band test, bit-identical to ``formula2_screen``.

    The expressions replicate :func:`repro.core.formula.formula2_bounds`
    operation-for-operation: Python floats and numpy float64 scalars are
    both IEEE doubles, so evaluating the same operations in the same
    order yields the same bits (property-tested against the vectorized
    form).  Keeping a scalar path makes the per-observe O(1) bound
    re-check cheap enough for the ingest hot loop.
    """
    lower = 2.0 * t_a * pair_count - n_total
    upper = 2.0 * t_b * (n_total - pair_count) + 2.0 * pair_count - n_total
    return bool(lower <= reputation < upper)


class _TargetScreen:
    """One target's incrementally maintained Formula-(2) screen terms.

    ``members``/``F`` mirror the booster candidate set and its summed
    frequency under the *cached* high vector; ``band`` is the last
    computed multi-booster band verdict; ``implicated`` is the sorted
    rater tuple the last screen convicted (the replay/re-emit source).
    All counters are integers, so maintenance is exact.
    """

    __slots__ = ("members", "F", "band", "implicated")

    def __init__(self) -> None:
        self.members: Set[int] = set()
        self.F = 0
        self.band = False
        self.implicated: Tuple[int, ...] = ()


class OnlineCollusionDetector:
    """Streaming variant of the optimized detector.

    Parameters
    ----------
    n:
        Universe size.
    thresholds:
        Detection thresholds; ``t_n`` drives the hot-set admission.
    multi_booster_exclusion:
        Same semantics as the batch detectors.
    """

    name = "online"

    def __init__(
        self,
        n: int,
        thresholds: Optional[DetectionThresholds] = None,
        ops: Optional[OpCounter] = None,
        multi_booster_exclusion: bool = True,
    ) -> None:
        check_int_range("n", n, 1)
        self.n = n
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self.ops = ops if ops is not None else OpCounter()
        self.multi_booster_exclusion = multi_booster_exclusion
        self._pair_eff: Dict[Tuple[int, int], int] = {}
        self._pair_pos: Dict[Tuple[int, int], int] = {}
        self._node_eff: IntArray = np.zeros(n, dtype=np.int64)
        self._node_pos: IntArray = np.zeros(n, dtype=np.int64)
        self._hot: Set[Tuple[int, int]] = set()
        self._hot_by_target: Dict[int, Set[int]] = {}
        self._targets_by_rater: Dict[int, Set[int]] = {}
        self._events = 0
        # Incremental re-screen state: targets touched since the last
        # period_candidates() pass, the pair queue of targets whose
        # screen bound flipped, and that pass's per-target results.
        self._dirty: Set[int] = set()
        self._pending: Set[int] = set()
        self._pending_full: Set[int] = set()
        self._screen_state: Dict[int, _TargetScreen] = {}
        self._half_cache: Dict[int, List[HalfVerdict]] = {}
        self._cache_high: Optional[BoolArray] = None
        self._cache_gate: Optional[FloatArray] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    @property
    def events_this_period(self) -> int:
        return self._events

    @property
    def hot_pairs(self) -> int:
        """Number of (target, rater) pairs at/above ``T_N`` this period."""
        return len(self._hot)

    def observe(self, rater: int, target: int, value: int, count: int = 1) -> None:
        """Ingest ``count`` identical ratings — O(1).

        Neutral (0) ratings are accepted and ignored (the detectors
        operate on effective counts).
        """
        if rater == target:
            raise RatingError(f"self-rating rejected (node {rater})")
        if not 0 <= rater < self.n:
            raise UnknownNodeError(rater, self.n)
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        if value not in (-1, 0, 1):
            raise RatingError(f"rating value must be -1, 0 or +1, got {value!r}")
        if count < 0:
            raise RatingError(f"count must be non-negative, got {count}")
        self.ops.add("observe", 1)
        self._events += count
        if value == 0:
            return
        self._dirty.add(target)
        key = (target, rater)
        eff = self._pair_eff.get(key, 0) + count
        self._pair_eff[key] = eff
        if value == 1:
            pos = self._pair_pos.get(key, 0) + count
            self._pair_pos[key] = pos
            self._node_pos[target] += count
        else:
            pos = self._pair_pos.get(key, 0)
        self._node_eff[target] += count
        if eff >= self.thresholds.t_n and key not in self._hot:
            self._hot.add(key)
            self._hot_by_target.setdefault(target, set()).add(rater)
            self._targets_by_rater.setdefault(rater, set()).add(target)
        if self._cache_high is not None:
            self._note_change(target, rater, eff - count, eff, pos)

    def _note_change(self, target: int, rater: int, eff_before: int,
                     eff: int, pos: int) -> None:
        """O(1) screen-term maintenance after one observe.

        Updates the target's cached ``(B, F)`` terms against the *last
        evaluation's* high vector, recomputes the Formula-(2) band, and
        enqueues the target's pairs only when the band or a membership
        actually flipped.  Targets already queued for a fresh screen
        skip maintenance — the re-screen rebuilds their record anyway.
        """
        if target in self._pending or target in self._pending_full:
            return
        rec = self._screen_state.get(target)
        if rec is None:
            # Never screened under the cached high vector; the next
            # evaluation screens it fresh (it is in the dirty set).
            return
        th = self.thresholds
        high = self._cache_high
        assert high is not None  # guarded by the caller
        flipped = False
        if bool(high[rater]):
            was = rater in rec.members
            now = eff >= th.t_n and pos / eff >= th.t_a
            if now:
                if was:
                    rec.F += eff - eff_before
                else:
                    rec.members.add(rater)
                    rec.F += eff
                    flipped = True
            elif was:
                rec.members.discard(rater)
                rec.F -= eff_before
                flipped = True
        if self.multi_booster_exclusion:
            band = False
            if rec.members:
                band = _screen_scalar(
                    float(2 * self._node_pos[target] - self._node_eff[target]),
                    float(self._node_eff[target]),
                    float(rec.F), th.t_a, th.t_b,
                )
            if band != rec.band:
                flipped = True
            rec.band = band
            if flipped:
                self._enqueue_pairs(target, rec)
        else:
            # Per-booster bands share the target's (R, N) terms, so one
            # observe can flip all of them at once; re-screen whenever
            # the target has candidates or a membership moved.
            if flipped or rec.members:
                self._enqueue_pairs(target, rec)

    def _enqueue_pairs(self, target: int, rec: _TargetScreen) -> None:
        self._pending.add(target)
        self.ops.add("pairs_enqueued", max(1, len(rec.members)))

    # ------------------------------------------------------------------
    # period boundary
    # ------------------------------------------------------------------
    def _evidence(self, rater: int, target: int,
                  target_reputation: float) -> PairEvidence:
        eff = self._pair_eff.get((target, rater), 0)
        pos = self._pair_pos.get((target, rater), 0)
        others_total = int(self._node_eff[target]) - eff
        others_positive = int(self._node_pos[target]) - pos
        return PairEvidence(
            rater=rater,
            target=target,
            frequency=eff,
            positive=pos,
            others_total=others_total,
            others_positive=others_positive,
            a=pos / eff if eff > 0 else float("nan"),
            b=others_positive / others_total if others_total > 0 else float("nan"),
            target_reputation=target_reputation,
        )

    def _emit(self, implicated: Tuple[int, ...], target: int,
              gate_entry: float) -> List[HalfVerdict]:
        """Half-verdicts for an already-decided implicated set."""
        return [
            HalfVerdict(target=target, rater=j,
                        evidence=self._evidence(j, target, gate_entry))
            for j in implicated
        ]

    def _fresh_screen(self, target: int, gate_entry: float,
                      high: BoolArray) -> Tuple[List[HalfVerdict], _TargetScreen]:
        """Screen one target from its raw counters, with full charges."""
        th = self.thresholds
        rec = _TargetScreen()
        raters = self._hot_by_target.get(target)
        if raters:
            for rater in sorted(raters):
                if not bool(high[rater]):
                    continue
                key = (target, rater)
                eff = self._pair_eff[key]
                self.ops.add("hot_check", 1)
                if self._pair_pos.get(key, 0) / eff >= th.t_a:
                    rec.members.add(rater)
                    rec.F += eff
        if rec.members:
            members = sorted(rec.members)
            n_total = float(self._node_eff[target])
            reputation = float(2 * self._node_pos[target] - self._node_eff[target])
            if self.multi_booster_exclusion:
                self.ops.add("formula_eval", 1)
                self.ops.add("pact_eval", len(members))
                rec.band = _screen_scalar(reputation, n_total, float(rec.F),
                                          th.t_a, th.t_b)
                implicated = members if rec.band else []
            else:
                implicated = []
                for j in members:
                    self.ops.add("formula_eval", 1)
                    self.ops.add("pact_eval", 1)
                    if _screen_scalar(reputation, n_total,
                                      float(self._pair_eff[(target, j)]),
                                      th.t_a, th.t_b):
                        implicated.append(j)
            rec.implicated = tuple(implicated)
        return self._emit(rec.implicated, target, gate_entry), rec

    def _gate(
        self,
        reputation: Optional[FloatArray],
        include: Optional[IntArray],
    ) -> Tuple[FloatArray, BoolArray]:
        """Resolve the ``(gate, high)`` vectors for a period evaluation."""
        th = self.thresholds
        if reputation is None:
            gate = (2 * self._node_pos - self._node_eff).astype(float)
        else:
            gate = np.asarray(reputation, dtype=float)
            if gate.shape != (self.n,):
                raise DetectionError(
                    f"reputation vector has shape {gate.shape}, expected ({self.n},)"
                )
        high = gate >= th.t_r
        if include is not None:
            ids = np.asarray(include, dtype=np.int64)
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.n):
                raise DetectionError(
                    f"include ids outside universe of size {self.n}"
                )
            high[ids] = True
        return gate, high

    def period_reputation(self) -> FloatArray:
        """This period's summation-reputation contribution, ``R = N+ - N-``.

        Only targets this detector has observed are non-zero, so in a
        target-partitioned deployment the global period vector is the
        element-wise sum of every shard's contribution.
        """
        return cast(FloatArray, (2 * self._node_pos - self._node_eff).astype(float))

    def period_candidates(
        self,
        reputation: Optional[FloatArray] = None,
        include: Optional[IntArray] = None,
    ) -> List[HalfVerdict]:
        """One-sided screen results over this period's hot pairs.

        A :class:`HalfVerdict` ``(target=i, rater=j)`` means node ``i``
        is high-reputed, ``j`` is in ``i``'s suspicious booster set, and
        ``i``'s reputation falls inside the Formula (2) band.  Joining
        matching halves (:func:`repro.core.model.join_half_verdicts`)
        yields exactly the batch verdict set; the split exists so a
        sharded deployment can evaluate each target where its counters
        live and re-check symmetric pairs at the merge point.

        Does not consume the period — call :meth:`reset_period` (or use
        :meth:`end_period`) to advance.

        Incremental: only targets whose screen bound flipped since the
        last call are re-screened (``pact_eval`` charges); touched
        targets with a standing verdict re-emit it with fresh evidence,
        and clean targets replay their cached halves at no cost.
        """
        gate, high = self._gate(reputation, include)
        cache_gate = self._cache_gate
        if self._cache_high is None:
            # No usable incremental state: screen every hot target.
            self.ops.add("full_screen", 1)
            candidates = set(self._hot_by_target)
        else:
            # A rater crossing T_R changes the C1 condition in the
            # booster sets of exactly the targets it shares a hot pair
            # with; a target crossing changes its own gate.
            for raw in np.flatnonzero(high != self._cache_high):
                node = int(raw)
                self._pending_full.update(
                    self._targets_by_rater.get(node, ())
                )
                if node in self._hot_by_target:
                    self._pending_full.add(node)
            candidates = set(self._screen_state)
            candidates.update(self._pending_full)
            candidates.update(self._pending)
            candidates.update(
                t for t in self._dirty if t in self._hot_by_target
            )
        halves: List[HalfVerdict] = []
        fresh_cache: Dict[int, List[HalfVerdict]] = {}
        fresh_state: Dict[int, _TargetScreen] = {}
        for i in sorted(candidates):
            if not bool(high[i]):
                continue  # stale record drops with the old cache dicts
            # (Re)screen decision, cheapest sufficient action first:
            # replay (clean) < re-emit (touched, bound stood) < fresh.
            rec = self._screen_state.get(i)
            gate_moved = cache_gate is None or float(cache_gate[i]) != float(gate[i])
            if rec is None or i in self._pending_full or i in self._pending:
                mine, rec = self._fresh_screen(i, float(gate[i]), high)
            elif rec.implicated and (i in self._dirty or gate_moved):
                mine = self._emit(rec.implicated, i, float(gate[i]))
            else:
                mine = self._half_cache.get(i, [])
            fresh_cache[i] = mine
            fresh_state[i] = rec
            halves.extend(mine)
        self._half_cache = fresh_cache
        self._screen_state = fresh_state
        self._cache_high = high.copy()
        self._cache_gate = gate.copy()
        # Dirty targets that were not screened (not hot, or below the
        # gate) can only become relevant through a later observe (which
        # re-dirties them) or a gate/high change (which re-queues them
        # via the delta pass above), so the sets clear unconditionally.
        self._dirty.clear()
        self._pending.clear()
        self._pending_full.clear()
        return halves

    def full_screen(
        self,
        reputation: Optional[FloatArray] = None,
        include: Optional[IntArray] = None,
    ) -> List[HalfVerdict]:
        """Escape hatch: drop all incremental state and re-screen.

        Produces exactly the same half-verdicts as
        :meth:`period_candidates` (the incremental bookkeeping is an
        exact integer mirror of the raw counters), re-derived from the
        raw counters with full screen charges — the recovery lever if
        the cached screen state is ever in doubt.
        """
        self._invalidate_screen_cache()
        return self.period_candidates(reputation=reputation, include=include)

    def _invalidate_screen_cache(self) -> None:
        self._screen_state.clear()
        self._half_cache.clear()
        self._pending.clear()
        self._pending_full.clear()
        self._cache_high = None
        self._cache_gate = None

    def end_period(
        self,
        reputation: Optional[FloatArray] = None,
        include: Optional[IntArray] = None,
        reset: bool = True,
    ) -> DetectionReport:
        """Screen the period's touched pairs; optionally reset for the next.

        Parameters mirror the batch detectors' ``detect``; ``reset``
        false keeps the period state (peek mode).
        """
        _, high = self._gate(reputation, include)
        report = DetectionReport(
            method=self.name, examined_nodes=int(high.sum())
        )
        before = self.ops.snapshot()
        for pair in join_half_verdicts(
            self.period_candidates(reputation=reputation, include=include)
        ):
            report.add(pair)
        report.operations = self.ops.diff(before)
        if reset:
            self.reset_period()
        return report

    def pair_counts(self) -> List[Tuple[int, int, int, int]]:
        """Sorted ``(target, rater, effective, positive)`` pair counters.

        The period's raw pair evidence, one tuple per stored counter —
        the shape :meth:`repro.rings.graph.SuspectGraph.build` consumes
        (the service merges these lists across shards: target-keyed
        counters never collide).
        """
        return [
            (t, r, eff, self._pair_pos.get((t, r), 0))
            for (t, r), eff in sorted(self._pair_eff.items())
        ]

    def node_counters(self) -> Tuple[IntArray, IntArray]:
        """Copies of the per-node received ``(effective, positive)`` counters."""
        return self._node_eff.copy(), self._node_pos.copy()

    def reset_period(self) -> None:
        """Clear all period state (counts, hot set, re-screen cache)."""
        self._pair_eff.clear()
        self._pair_pos.clear()
        self._node_eff[:] = 0
        self._node_pos[:] = 0
        self._hot.clear()
        self._hot_by_target.clear()
        self._targets_by_rater.clear()
        self._events = 0
        self._dirty.clear()
        self._invalidate_screen_cache()

    # ------------------------------------------------------------------
    # durability (snapshot / restore)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Period state as a JSON-serializable dict (deterministic order).

        The hot set is not exported — it is a pure function of the pair
        frequencies and ``t_n``, and :meth:`restore_arrays` rebuilds it
        (as it does every derived incremental-screen structure).
        """
        return {
            "n": self.n,
            "events": self._events,
            "pair_eff": [[t, r, c] for (t, r), c in sorted(self._pair_eff.items())],
            "pair_pos": [[t, r, c] for (t, r), c in sorted(self._pair_pos.items())],
            "node_eff": [int(v) for v in self._node_eff],
            "node_pos": [int(v) for v in self._node_pos],
        }

    def export_arrays(self) -> Dict[str, IntArray]:
        """Period state as dense int64 arrays (the mmap-image payload).

        Pair counters are emitted in sorted ``(target, rater)`` order —
        the same canonical order as :meth:`export_state` — with the
        positive plane aligned to the effective plane (zero where a
        pair never received a positive rating).
        """
        items = sorted(self._pair_eff.items())
        pair_target = np.fromiter(
            (t for (t, _r), _c in items), dtype=np.int64, count=len(items))
        pair_rater = np.fromiter(
            (r for (_t, r), _c in items), dtype=np.int64, count=len(items))
        pair_eff = np.fromiter(
            (c for _k, c in items), dtype=np.int64, count=len(items))
        pair_pos = np.fromiter(
            (self._pair_pos.get(k, 0) for k, _c in items),
            dtype=np.int64, count=len(items))
        return {
            "pair_target": pair_target,
            "pair_rater": pair_rater,
            "pair_eff": pair_eff,
            "pair_pos": pair_pos,
            "node_eff": self._node_eff.copy(),
            "node_pos": self._node_pos.copy(),
        }

    def restore_arrays(self, arrays: Dict[str, IntArray], events: int) -> None:
        """Bulk restore from :meth:`export_arrays` output (zero parsing).

        Accepts read-only (memory-mapped) arrays: node counters are
        copied into writable storage, pair counters are folded into the
        dicts straight off the buffers.
        """
        node_eff = np.asarray(arrays["node_eff"], dtype=np.int64)
        node_pos = np.asarray(arrays["node_pos"], dtype=np.int64)
        if node_eff.shape != (self.n,) or node_pos.shape != (self.n,):
            raise DetectionError(
                f"node counter arrays have shape {node_eff.shape}/"
                f"{node_pos.shape}, detector has universe n={self.n}")
        targets = arrays["pair_target"].tolist()
        raters = arrays["pair_rater"].tolist()
        effs = arrays["pair_eff"].tolist()
        poss = arrays["pair_pos"].tolist()
        self._pair_eff = dict(zip(zip(targets, raters), effs))
        self._pair_pos = {
            (t, r): p for t, r, p in zip(targets, raters, poss) if p
        }
        self._node_eff = node_eff.copy()
        self._node_pos = node_pos.copy()
        self._events = int(events)
        self._rebuild_hot_indexes()

    def _rebuild_hot_indexes(self) -> None:
        """Re-derive the hot set and screen caches from the counters."""
        t_n = self.thresholds.t_n
        self._hot = {
            key for key, eff in self._pair_eff.items() if eff >= t_n
        }
        self._hot_by_target = {}
        self._targets_by_rater = {}
        for t, r in self._hot:
            self._hot_by_target.setdefault(t, set()).add(r)
            self._targets_by_rater.setdefault(r, set()).add(t)
        self._dirty.clear()
        self._invalidate_screen_cache()
