"""Accomplice identification for compromised pretrusted nodes.

The Figure-11 scenario has pretrusted nodes colluding with regular
colluders.  A compromised pretrusted node defeats the C2 condition of
the pairwise detectors: it serves authentic files, so the outside world
rates it positively (``b`` high) and neither the explicit ``b < T_b``
check nor the Formula (2) screen can flag it from its own row.

The paper nonetheless reports that "both colluders and compromised
pretrusted nodes receive 0 reputation values" in
EigenTrust+Optimized.  The reproduction makes the mechanism explicit:
once a node is *confirmed* as a colluder by the pairwise detector, any
high-frequency mutually-positive rating partner of that node is an
**accomplice** — the C2 requirement is waived because the certainty now
comes from the partner's conviction, not from the accomplice's own
rating profile.  This is the one place the reproduction fills in a
mechanism the paper leaves implicit; see EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.thresholds import DetectionThresholds
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter

__all__ = ["find_accomplices"]


def find_accomplices(
    matrix: RatingMatrix,
    confirmed: Iterable[int],
    thresholds: DetectionThresholds,
    ops: Optional[OpCounter] = None,
) -> FrozenSet[int]:
    """Nodes in a mutual high-frequency positive pact with confirmed colluders.

    Parameters
    ----------
    matrix:
        The period's rating counts.
    confirmed:
        Node ids already flagged by a pairwise detector.
    thresholds:
        Supplies ``t_n`` (mutual frequency) and ``t_a`` (mutual positive
        fraction); ``t_b`` is deliberately not applied.
    ops:
        Optional :class:`~repro.util.counters.OpCounter` charged the
        nominal cost of the pact evaluation — one ``pact_eval`` per
        ordered pair — under its own counter name so the pairwise
        detectors' Prop 4.1/4.2 trajectories are unaffected.

    Returns
    -------
    frozenset of int
        Newly implicated accomplices (confirmed ids are excluded).
        Closure is transitive: an accomplice's own pact partners are
        implicated too (a chain of mutual boosting all hangs together).
    """
    confirmed_set: Set[int] = {int(c) for c in confirmed}
    if not confirmed_set:
        return frozenset()

    # Nominal cost: the pact predicate is evaluated for every ordered
    # pair, however numpy vectorizes the sweep below (REP002).
    if ops is not None:
        ops.add("pact_eval", matrix.n * matrix.n)

    # pact (target, rater): rater rates target frequently (>= t_n
    # effective ratings) and almost always positively (pos/cnt >= t_a,
    # in the division-free form pos >= t_a * cnt).  The COO entry set
    # never materializes an (n, n) plane.
    targets, raters, cnt, pos = matrix.entries(effective=True)
    mask = (cnt >= thresholds.t_n) & (pos >= thresholds.t_a * cnt)
    pact = set(zip(targets[mask].tolist(), raters[mask].tolist()))

    # mutual[i] -> partners j with both (i, j) and (j, i) in the pact
    # set (i rates j and j rates i, each frequently and positively).
    mutual: Dict[int, List[int]] = {}
    for i, j in pact:
        if i != j and (j, i) in pact:
            mutual.setdefault(i, []).append(j)

    implicated: Set[int] = set()
    frontier = set(confirmed_set)
    while frontier:
        node = frontier.pop()
        for p in mutual.get(node, []):
            if p not in confirmed_set and p not in implicated:
                implicated.add(p)
                frontier.add(p)
    return frozenset(implicated)
