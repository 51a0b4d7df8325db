"""Group-collusion detection for collectives larger than pairs.

Paper future work (Section VI): "We will also investigate how to detect
a collusion collective having more than two nodes such as Sybil
attack."  The trace analysis (C5) found real collusion to be pairwise,
but the *model* extends naturally: a collusion collective is a set of
high-reputed nodes that rate each other frequently and positively while
the outside world rates them negatively.

:class:`GroupCollusionDetector` builds the directed *suspicion graph*
(edge ``j -> i`` when ``j`` rates ``i`` at frequency ``>= T_N`` with
positive fraction ``>= T_a``, both nodes high-reputed, and the outside
fraction of ``i`` is ``< T_b``) and reports its strongly connected
components of size ``>= 2``.  Size-2 components coincide with the basic
detector's pairs; larger components are rating rings (Sybil-style
collectives) the pairwise methods cannot see as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

import networkx as nx
import numpy as np

from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter

__all__ = ["GroupCollusionDetector", "CollusionGroup", "GroupReport"]


@dataclass(frozen=True)
class CollusionGroup:
    """One detected collusion collective."""

    members: FrozenSet[int]
    internal_edges: int
    is_pair: bool

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class GroupReport:
    """Outcome of a group-detection pass."""

    groups: List[CollusionGroup] = field(default_factory=list)
    suspicion_edges: int = 0
    examined_nodes: int = 0

    def colluders(self) -> FrozenSet[int]:
        out = set()
        for g in self.groups:
            out |= g.members
        return frozenset(out)

    def pairs(self) -> List[CollusionGroup]:
        return [g for g in self.groups if g.is_pair]

    def rings(self) -> List[CollusionGroup]:
        """Groups with more than two members (the Sybil-style case)."""
        return [g for g in self.groups if not g.is_pair]

    def __len__(self) -> int:
        return len(self.groups)


class GroupCollusionDetector:
    """Detects collusion collectives of any size via the suspicion graph.

    Parameters
    ----------
    thresholds:
        Same four-threshold bundle as the pairwise detectors.
    require_outside_negativity:
        When true (default), the C2 condition (outsiders' positive
        fraction ``< T_b``) is part of the edge definition.  Setting
        false detects mutual-boosting rings even before they attract
        outside negative ratings — earlier but noisier.
    """

    name = "group"

    def __init__(
        self,
        thresholds: Optional[DetectionThresholds] = None,
        require_outside_negativity: bool = True,
        ops: Optional[OpCounter] = None,
    ):
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self.require_outside_negativity = require_outside_negativity
        self.ops = ops if ops is not None else OpCounter()

    def suspicion_graph(
        self,
        matrix: RatingMatrix,
        reputation: Optional[np.ndarray] = None,
        include: Optional[np.ndarray] = None,
    ) -> nx.DiGraph:
        """The directed graph of suspicious rating relationships.

        Nodes are all high-reputed node ids; an edge ``j -> i`` means
        ``j``'s ratings of ``i`` satisfy the C1/C3/C4 (and optionally
        C2) conditions.  Built with whole-matrix boolean broadcasting.
        ``include`` forces extra node ids through the ``T_R`` gate —
        same semantics as the pairwise detectors.
        """
        n = matrix.n
        th = self.thresholds
        if reputation is None:
            reputation = matrix.reputation_sum().astype(float)
        else:
            reputation = np.asarray(reputation, dtype=float)
            if reputation.shape != (n,):
                raise DetectionError(
                    f"reputation vector has shape {reputation.shape}, expected ({n},)"
                )
        high = reputation >= th.t_r
        if include is not None:
            ids = np.asarray(include, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise DetectionError(f"include ids outside universe of size {n}")
            high[ids] = True

        # Candidate edges come from the COO entry set (no (n, n)
        # plane is materialized).  An entry is (target i,
        # rater j, effective count, positive count); the C1/C3 screen
        # is the division-free form of a = pos/cnt >= t_a.
        targets, raters, cnt, pos = matrix.entries(effective=True)
        sel = (cnt >= th.t_n) & (pos >= th.t_a * cnt)
        sel &= high[targets] & high[raters]
        sel &= targets != raters

        if self.require_outside_negativity:
            # C2: the rest of the world's positive fraction about the
            # target, b = (N+_i - pos_ij) / (Neff_i - cnt_ij), must be
            # < t_b.  No outside ratings at all (denominator 0) means
            # no outside corroboration — the edge is rejected, matching
            # the NaN-comparison semantics of the dense formulation.
            others_eff = matrix.received_effective()[targets] - cnt
            others_pos = matrix.received_positive()[targets] - pos
            sel &= (others_eff > 0) & (others_pos < th.t_b * others_eff)
        self.ops.add("edge_eval", n * n)

        graph = nx.DiGraph()
        graph.add_nodes_from(int(i) for i in np.flatnonzero(high))
        graph.add_edges_from(
            (int(j), int(i))
            for i, j in zip(targets[sel].tolist(), raters[sel].tolist())
        )
        return graph

    def detect(
        self,
        matrix: RatingMatrix,
        reputation: Optional[np.ndarray] = None,
        include: Optional[np.ndarray] = None,
    ) -> GroupReport:
        """Report all collusion collectives (SCCs of size >= 2)."""
        graph = self.suspicion_graph(matrix, reputation, include)
        report = GroupReport(
            suspicion_edges=graph.number_of_edges(),
            examined_nodes=graph.number_of_nodes(),
        )
        for component in nx.strongly_connected_components(graph):
            if len(component) < 2:
                continue
            sub = graph.subgraph(component)
            report.groups.append(
                CollusionGroup(
                    members=frozenset(int(v) for v in component),
                    internal_edges=sub.number_of_edges(),
                    is_pair=len(component) == 2,
                )
            )
        report.groups.sort(key=lambda g: (-g.size, sorted(g.members)))
        return report
