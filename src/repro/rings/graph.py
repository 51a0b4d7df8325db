"""The suspect graph: pair-level evidence lifted into a queryable graph.

The pair detectors (Sections IV-B/C) emit *pair* verdicts: a joined
symmetric Formula (2) screen per ``{i, j}``.  Collusion collectives
larger than two — rings, hubs, rating-spread cliques — leave the same
statistical footprint (C1–C4) spread across more edges, each of which
may individually sit *below* the pair thresholds.  The
:class:`SuspectGraph` is the shared substrate the ring detectors mine:

* **nodes** are peers, annotated with their period counters
  (``N_eff``, ``N+``) and the reputation gate value;
* **edges** are *candidate* boosting relationships ``rater -> target``:
  both endpoints high-reputed (C1), positive fraction ``>= T_a`` (C3),
  and frequency at least ``edge_floor * T_N`` — a configurable
  *relaxation* of the pair frequency threshold (C4) so that edges
  diluted below ``T_N`` by evasion still enter the graph;
* an edge is **screened** when it is one leg of the pair detector's
  half-verdict set — the graph is built *from* those half-verdicts, so
  the set of mutually screened edges reproduces the batch pair verdict
  set exactly (the no-regression anchor the property tests pin);
* every edge carries a **band score** in ``[0, 1]``: how deep the
  target's summation reputation sits inside the Formula (2) band
  ``[2 T_a F - N,  2 T_b (N - F) + 2 F - N)`` for this edge's pair
  mass — 0 outside the band, approaching 1 at the all-boosted lower
  bound.

Construction paths: :meth:`SuspectGraph.build` consumes half-verdicts
plus raw pair counters (the shard-state shape the service exports);
:meth:`SuspectGraph.from_matrix` derives both from a period
:class:`~repro.ratings.matrix.RatingMatrix` with one COO sweep and the
batch optimized detector's whole-array screen
(:class:`~repro.core.optimized.ScreenPass`) — no dense plane — and
property-tested equal, edges, bits and op charges, to
streaming the entries through an
:class:`~repro.core.online.OnlineCollusionDetector`.  Either way the
candidate-edge filter is one numpy mask over the counters, and only
the admitted edges are built one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.formula import formula2_bounds
from repro.core.model import HalfVerdict
from repro.core.optimized import ScreenPass
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter
from repro.util.validation import check_fraction

__all__ = ["SuspectEdge", "SuspectGraph"]

#: ``(target, rater, effective, positive)`` — the exported pair-counter
#: shape (matches ``OnlineCollusionDetector.export_state`` ordering).
PairCount = Tuple[int, int, int, int]


@dataclass(frozen=True)
class SuspectEdge:
    """One directed candidate boosting relationship ``rater -> target``.

    ``screened`` marks the edge as a pair-detector half-verdict leg
    (target's Formula (2) screen implicates the rater); ``band_score``
    is the target's depth inside the Formula (2) band for this edge's
    pair mass (0 when outside the band).
    """

    rater: int
    target: int
    frequency: int
    positive: int
    screened: bool
    band_score: float

    @property
    def positive_fraction(self) -> float:
        """The rater's positive fraction toward the target (Table I ``a``)."""
        if self.frequency <= 0:
            return float("nan")
        return self.positive / self.frequency

    def to_dict(self) -> Dict[str, object]:
        """JSON document for the ``/collusion-graph`` endpoint."""
        return {
            "rater": self.rater,
            "target": self.target,
            "frequency": self.frequency,
            "positive": self.positive,
            "screened": self.screened,
            "band_score": self.band_score,
        }


class SuspectGraph:
    """Weighted directed graph of suspected boosting relationships.

    Parameters
    ----------
    n:
        Universe size.
    thresholds:
        The detection threshold bundle; ``t_n`` (scaled by
        ``edge_floor``) drives candidate-edge admission.
    node_eff, node_pos:
        Per-node received effective / positive counters for the period.
    reputation:
        The reputation gate vector (the service's global period gate or
        the matrix summation reputation) — drives the ``T_R`` highness
        mask, exactly like the pair detectors' C1 gate.
    edge_floor:
        Fraction of ``T_N`` a candidate edge's frequency must reach,
        in ``(0, 1]``.  1.0 admits only pair-threshold edges; the 0.5
        default lets the miners see edges diluted to half the pair
        threshold.
    """

    def __init__(
        self,
        n: int,
        thresholds: DetectionThresholds,
        node_eff: npt.NDArray[np.int64],
        node_pos: npt.NDArray[np.int64],
        reputation: npt.NDArray[np.float64],
        edge_floor: float = 0.5,
    ) -> None:
        check_fraction("edge_floor", edge_floor, inclusive_low=False)
        if node_eff.shape != (n,) or node_pos.shape != (n,):
            raise DetectionError(
                f"node counter arrays must have shape ({n},), got "
                f"{node_eff.shape} / {node_pos.shape}"
            )
        if reputation.shape != (n,):
            raise DetectionError(
                f"reputation vector has shape {reputation.shape}, expected ({n},)"
            )
        self.n = n
        self.thresholds = thresholds
        self.edge_floor = edge_floor
        self.node_eff = node_eff
        self.node_pos = node_pos
        self.reputation = reputation
        self.high: npt.NDArray[np.bool_] = reputation >= thresholds.t_r
        self._edges: Dict[Tuple[int, int], SuspectEdge] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n: int,
        thresholds: DetectionThresholds,
        halves: Sequence[HalfVerdict],
        pair_counts: Iterable[PairCount],
        reputation: npt.NDArray[np.float64],
        node_eff: npt.NDArray[np.int64],
        node_pos: npt.NDArray[np.int64],
        edge_floor: float = 0.5,
        include: Optional[npt.NDArray[np.int64]] = None,
        ops: Optional[OpCounter] = None,
    ) -> "SuspectGraph":
        """Assemble the graph from half-verdicts and raw pair counters.

        ``pair_counts`` supplies every stored ``(target, rater, eff,
        pos)`` counter of the period (the service's exported shard
        state); candidate edges are selected from it, then the legs
        named by ``halves`` are marked screened.
        A screened leg always satisfies the candidate criteria (its
        frequency is ``>= T_N >= edge_floor * T_N`` and its positive
        fraction ``>= T_a``), so marking never adds edges.
        """
        ops = ops if ops is not None else OpCounter()
        graph = cls(n, thresholds, node_eff, node_pos, reputation,
                    edge_floor=edge_floor)
        graph._admit(include)
        counts = np.fromiter(itertools.chain.from_iterable(pair_counts),
                             dtype=np.int64).reshape(-1, 4)
        graph._add_edges(counts[:, 0], counts[:, 1], counts[:, 2], counts[:, 3],
                         {(h.rater, h.target) for h in halves}, ops)
        return graph

    @classmethod
    def from_matrix(
        cls,
        matrix: RatingMatrix,
        thresholds: Optional[DetectionThresholds] = None,
        reputation: Optional[npt.ArrayLike] = None,
        include: Optional[npt.ArrayLike] = None,
        edge_floor: float = 0.5,
        multi_booster_exclusion: bool = True,
        ops: Optional[OpCounter] = None,
    ) -> "SuspectGraph":
        """Build the graph for one period matrix (batch entry point).

        One ``entries()`` sweep over the stored entries
        supplies the pair counters, and the batch optimized detector's
        whole-array screen (:class:`~repro.core.optimized.ScreenPass`:
        booster mask, per-target booster mass, Formula (2) band) over
        the same sweep marks the screened legs, so the mutually
        screened edges equal the batch pair verdicts for the same
        ``(matrix, reputation)`` inputs.

        ``ops`` is charged what streaming the entries through an
        :class:`~repro.core.online.OnlineCollusionDetector` and
        screening it once would charge (``observe``, ``full_screen``,
        ``hot_check``, ``formula_eval``, ``pact_eval``), plus
        :meth:`build`'s ``edge_eval`` per entry; the streaming graph's
        equality, charges included, is property-tested.
        """
        th = thresholds if thresholds is not None else DetectionThresholds()
        ops = ops if ops is not None else OpCounter()
        n = matrix.n
        targets, raters, eff, pos = entries = matrix.entries(effective=True)
        # The node counters are the entries' column sums, as a streaming
        # detector accumulates them.
        node_eff = np.bincount(targets, weights=eff, minlength=n).astype(np.int64)
        node_pos = np.bincount(targets, weights=pos, minlength=n).astype(np.int64)
        r_sum = (2 * node_pos - node_eff).astype(float)
        if reputation is None:
            gate = r_sum
        else:
            gate = np.asarray(reputation, dtype=float)
            if gate.shape != (n,):
                raise DetectionError(
                    f"reputation vector has shape {gate.shape}, "
                    f"expected ({n},)"
                )
        graph = cls(n, th, node_eff, node_pos, gate, edge_floor=edge_floor)
        graph._admit(None if include is None
                     else np.asarray(include, dtype=np.int64))
        screen = ScreenPass(entries, graph.high, node_eff, r_sum, th,
                            multi_booster_exclusion)
        # The streaming charges: one observe per nonzero positive or
        # negative run of an entry; one full screen of a fresh detector
        # with a hot_check per high hot pair; then per screened target
        # one formula_eval (one per booster without multi-booster
        # exclusion) and a pact_eval per booster.
        observes = int(np.count_nonzero(pos) + np.count_nonzero(eff - pos))
        if observes:
            ops.add("observe", observes)
        ops.add("full_screen", 1)
        if screen.hot_pairs:
            ops.add("hot_check", screen.hot_pairs)
        if screen.b_targets.size:
            ops.add("formula_eval", screen.formula_evals)
            ops.add("pact_eval", int(screen.b_targets.size))
        screened = set(zip(screen.b_raters[screen.b_band].tolist(),
                           screen.b_targets[screen.b_band].tolist()))
        graph._add_edges(targets, raters, eff, pos, screened, ops)
        return graph

    def _admit(self, include: Optional[npt.NDArray[np.int64]]) -> None:
        """Mark the ``include`` ids high-reputed, as the detectors do."""
        if include is not None and include.size:
            if int(include.min()) < 0 or int(include.max()) >= self.n:
                raise DetectionError(
                    f"include ids outside universe of size {self.n}"
                )
            self.high[include] = True

    def _add_edges(
        self,
        targets: npt.NDArray[np.int64],
        raters: npt.NDArray[np.int64],
        eff: npt.NDArray[np.int64],
        pos: npt.NDArray[np.int64],
        screened: Set[Tuple[int, int]],
        ops: OpCounter,
    ) -> None:
        """Admit the candidate edges among the pair counters, in order.

        One ``edge_eval`` per counter; the candidate filter is one mask
        and only the admitted edges are built one by one.
        """
        if targets.size:
            ops.add("edge_eval", int(targets.size))
        th = self.thresholds
        keep = ((raters != targets) & (eff > 0)
                & (eff >= self.edge_floor * th.t_n) & (pos >= th.t_a * eff)
                & self.high[targets] & self.high[raters])
        targets, raters, eff, pos = (
            targets[keep], raters[keep], eff[keep], pos[keep])
        lower, upper = formula2_bounds(self.node_eff[targets].astype(float),
                                       eff.astype(float), th.t_a, th.t_b)
        # The period summation reputation the Formula (2) screen runs
        # against — derived from the node counters, exactly as the
        # online detector derives it.
        r_sum = (2 * self.node_pos[targets] - self.node_eff[targets]).astype(float)
        for rater, target, frequency, positive, rep, lo, hi in zip(
                raters.tolist(), targets.tolist(), eff.tolist(), pos.tolist(),
                r_sum.tolist(), np.asarray(lower).tolist(),
                np.asarray(upper).tolist()):
            self._edges[(rater, target)] = SuspectEdge(
                rater=rater,
                target=target,
                frequency=frequency,
                positive=positive,
                screened=(rater, target) in screened,
                band_score=_band_score(rep, lo, hi),
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge(self, rater: int, target: int) -> Optional[SuspectEdge]:
        """The candidate edge ``rater -> target``, or None."""
        return self._edges.get((rater, target))

    def edges(self) -> List[SuspectEdge]:
        """All candidate edges, sorted by ``(rater, target)``."""
        return [self._edges[key] for key in sorted(self._edges)]

    def nodes(self) -> List[int]:
        """Sorted ids of nodes incident to at least one candidate edge."""
        out: Set[int] = set()
        for rater, target in self._edges:
            out.add(rater)
            out.add(target)
        return sorted(out)

    def mutual_pairs(self) -> List[Tuple[int, int]]:
        """``(low, high)`` pairs whose *both* directed legs are screened.

        This is exactly the half-verdict join
        (:func:`repro.core.model.join_half_verdicts`): the batch pair
        detector's verdict set, recovered from the graph.
        """
        screened = {key for key, e in self._edges.items() if e.screened}
        return sorted(
            (rater, target)
            for rater, target in screened
            if rater < target and (target, rater) in screened
        )

    def adjacency(self) -> Dict[int, Set[int]]:
        """Undirected neighbour map over the candidate edges."""
        out: Dict[int, Set[int]] = {}
        for rater, target in self._edges:
            out.setdefault(rater, set()).add(target)
            out.setdefault(target, set()).add(rater)
        return out

    def components(self) -> List[List[int]]:
        """Weakly connected components (sorted ids, sorted by min id)."""
        adjacency = self.adjacency()
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in sorted(adjacency):
            if start in seen:
                continue
            stack = [start]
            component: List[int] = []
            seen.add(start)
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            components.append(sorted(component))
        return components

    def to_dict(self) -> Dict[str, object]:
        """JSON document: involved nodes with counters, plus all edges."""
        involved = self.nodes()
        return {
            "n": self.n,
            "edge_floor": self.edge_floor,
            "nodes": [
                {
                    "id": node,
                    "effective": int(self.node_eff[node]),
                    "positive": int(self.node_pos[node]),
                    "reputation": float(self.reputation[node]),
                    "high": bool(self.high[node]),
                }
                for node in involved
            ],
            "edges": [edge.to_dict() for edge in self.edges()],
            "mutual_pairs": [list(pair) for pair in self.mutual_pairs()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuspectGraph(n={self.n}, edges={self.num_edges}, "
            f"nodes={len(self.nodes())}, floor={self.edge_floor})"
        )


def _band_score(reputation: float, lower: float, upper: float) -> float:
    """Depth of ``reputation`` inside the Formula (2) band, in [0, 1].

    0 outside ``[lower, upper)``; inside, 1 at the lower bound (the
    all-boosted extreme ``a = T_a, b = 0``) falling linearly to 0 at
    the upper bound.  A degenerate band (``upper <= lower``) scores 0.
    """
    if upper <= lower or not lower <= reputation < upper:
        return 0.0
    return (upper - reputation) / (upper - lower)
