"""Decentralized collusion detection over sharded reputation managers.

Section IV-B/C: each reputation manager ``M_i`` runs the detection
conditions over its *responsible* nodes only.  When node ``n_i``
(managed by ``M_i``) looks like it colludes with rater ``n_j``, the
symmetric direction must be verified against ``n_j``'s ratings — which
live at ``n_j``'s manager ``M_j``.  If ``M_i`` happens to manage ``n_j``
too, the check is local; otherwise ``M_i`` contacts ``M_j`` with the
DHT's ``Insert(j, msg)`` primitive and ``M_j`` replies positively iff
``R_j >= T_R``, ``N_(j<-i) >= T_N`` and the rating pattern matches (the
basic conditions or the Formula (2) screen, per the configured method).

The protocol here routes every cross-manager request/response through
the Chord ring so message *and hop* counts reflect a real deployment.
Detection output is provably identical to running the corresponding
centralized detector on the union of all shards (property-tested).
"""

from __future__ import annotations

from typing import Literal, Optional, Set, Tuple

import numpy as np

from repro.core.basic import BasicCollusionDetector
from repro.core.model import DetectionReport, SuspectedPair
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.reputation.decentralized import DecentralizedReputationSystem, ReputationShard
from repro.util.counters import OpCounter

__all__ = ["DecentralizedCollusionDetector"]

Method = Literal["basic", "optimized"]


class DecentralizedCollusionDetector:
    """Runs the paper's detection protocol across reputation shards.

    Parameters
    ----------
    system:
        The decentralized reputation deployment (shards + Chord ring).
    thresholds:
        Detection thresholds (shared by every manager).
    method:
        ``"optimized"`` (default) or ``"basic"`` — which per-manager
        check to run.  Both use the same cross-manager protocol.
    """

    name = "decentralized"

    def __init__(
        self,
        system: DecentralizedReputationSystem,
        thresholds: Optional[DetectionThresholds] = None,
        method: Method = "optimized",
        ops: Optional[OpCounter] = None,
    ):
        if method not in ("basic", "optimized"):
            raise DetectionError(f"unknown detection method {method!r}")
        self.system = system
        self.thresholds = thresholds if thresholds is not None else DetectionThresholds()
        self.method = method
        self.ops = ops if ops is not None else OpCounter()

    # ------------------------------------------------------------------
    # per-manager primitives
    # ------------------------------------------------------------------
    def _local_detector(self):
        if self.method == "basic":
            return BasicCollusionDetector(self.thresholds, ops=self.ops)
        return OptimizedCollusionDetector(self.thresholds, ops=self.ops)

    def _direction_holds(
        self,
        shard: ReputationShard,
        rater: int,
        target: int,
        gate_reputation: np.ndarray,
    ) -> bool:
        """Evaluate the detection conditions for ``rater -> target``.

        ``target`` must be managed by ``shard``.  This is what a remote
        manager executes upon receiving a collusion-check request.
        """
        th = self.thresholds
        if gate_reputation[target] < th.t_r:
            return False
        matrix = shard.matrix()
        pos = matrix.pair_positive(rater, target)
        freq = pos + matrix.pair_negative(rater, target)
        self.ops.add("freq_check", 1)
        if freq < th.t_n:
            return False
        if self.method == "optimized":
            from repro.core.formula import formula2_screen

            self.ops.add("formula_eval", 1)
            n_total = float(matrix.received_effective()[target])
            rep = float(matrix.received_positive()[target]
                        - matrix.received_negative()[target])
            return bool(
                formula2_screen(rep, n_total, float(freq), th.t_a, th.t_b)
            )
        # basic: explicit a / b evaluation with a full row scan
        self.ops.add("row_scan", matrix.n)
        a = pos / freq if freq > 0 else float("nan")
        others_total = int(matrix.received_effective()[target]) - freq
        others_pos = int(matrix.received_positive()[target]) - pos
        if others_total <= 0:
            return False
        b = others_pos / others_total
        return a >= th.t_a and b < th.t_b

    # ------------------------------------------------------------------
    def detect(self, reputation: Optional[np.ndarray] = None) -> DetectionReport:
        """Run one full detection round across all managers.

        Parameters
        ----------
        reputation:
            Published reputation vector for the ``T_R`` gate; defaults
            to the system's published values (call ``system.update()``
            first) — falling back to per-shard summation reputation if
            nothing has been published yet.

        Returns
        -------
        DetectionReport
            Union of every manager's findings, with ``messages`` set to
            the number of cross-manager protocol messages exchanged.
        """
        sys_ = self.system
        if reputation is None:
            reputation = sys_.published_vector()
            if not np.any(reputation):
                reputation = sys_.global_matrix().reputation_sum().astype(float)
        else:
            reputation = np.asarray(reputation, dtype=float)
            if reputation.shape != (sys_.n,):
                raise DetectionError(
                    f"reputation vector has shape {reputation.shape}, "
                    f"expected ({sys_.n},)"
                )

        th = self.thresholds
        report = DetectionReport(method=f"{self.name}-{self.method}")
        before_msgs = sys_.messages.messages
        before_ops = self.ops.snapshot()
        examined = 0
        resolved: Set[Tuple[int, int]] = set()

        for manager_id, shard in sorted(sys_.shards.items()):
            matrix = shard.matrix()
            high_local = [
                i for i in sorted(shard.responsible) if reputation[i] >= th.t_r
            ]
            examined += len(high_local)
            for i in high_local:
                self.ops.add("freq_check", sys_.n - 1)
                # Nonzero-elided row view: a rater with zero effective
                # ratings can never clear t_n >= 1, so eliding zeros is
                # exact (and no dense row materializes).
                row_raters, row_counts, _ = matrix.row_entries(i)
                candidates = row_raters[
                    (row_counts >= th.t_n) & (reputation[row_raters] >= th.t_r)
                ]
                for j in candidates:
                    j = int(j)
                    if j == i:
                        continue
                    key = (i, j) if i < j else (j, i)
                    if key in resolved:
                        continue
                    # First direction (j rates i) — local to this shard.
                    if not self._direction_holds(shard, rater=j, target=i,
                                                 gate_reputation=reputation):
                        continue
                    resolved.add(key)
                    # Symmetric direction lives at n_j's manager.
                    partner_manager = sys_.manager_of(j)
                    if partner_manager == manager_id:
                        holds = self._direction_holds(
                            shard, rater=i, target=j, gate_reputation=reputation
                        )
                    else:
                        # Insert(j, msg): route the check request, then the
                        # remote manager evaluates and replies.
                        _, hops = sys_.ring.find_successor(sys_._node_key[j],
                                                           start=manager_id)
                        sys_.messages.record("collusion_check", manager_id,
                                             partner_manager, hops)
                        holds = self._direction_holds(
                            sys_.shards[partner_manager], rater=i, target=j,
                            gate_reputation=reputation,
                        )
                        sys_.messages.record("collusion_response", partner_manager,
                                             manager_id, hops)
                    if holds:
                        report.add(SuspectedPair.of(i, j))

        report.examined_nodes = examined
        report.messages = sys_.messages.messages - before_msgs
        report.operations = self.ops.diff(before_ops)
        return report
