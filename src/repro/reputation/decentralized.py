"""Decentralized reputation management over a Chord DHT.

"Decentralized reputation systems distribute the role of the
centralized resource manager to a number of trustworthy nodes …  The
reputation manager of reputation ratings on node ``n_i`` is the DHT
owner of ``ID_i``" (paper Section IV-A / Figure 2).

:class:`DecentralizedReputationSystem` hashes every content node's id
onto the ring; the manager owning that point keeps a
:class:`ReputationShard` with all ratings *about* its responsible
nodes.  Ratings are routed with the paper's ``Insert(ID_i, r_i)`` and
reputation reads with ``Lookup(ID_i)``, both counted on the shared
:class:`MessageCounter`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.dht.hashing import IdSpace
from repro.dht.ring import ChordRing
from repro.errors import ConfigurationError, UnknownNodeError
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix
from repro.reputation.base import ReputationSystem
from repro.reputation.summation import SummationReputation
from repro.util.counters import MessageCounter
from repro.util.validation import check_int_range

__all__ = ["ReputationShard", "DecentralizedReputationSystem"]


class ReputationShard:
    """One reputation manager's slice of the global rating state.

    The shard keeps a full-universe ledger but only ever receives
    events whose *target* it is responsible for, so its count matrix
    has non-zero rows only at responsible nodes.  This keeps all the
    vectorized aggregate code identical to the centralized path.
    """

    def __init__(self, manager_id: int, n: int, responsible: Iterable[int]):
        self.manager_id = manager_id
        self.n = n
        self.responsible = frozenset(int(i) for i in responsible)
        self.ledger = RatingLedger(n)
        self.published: Dict[int, float] = {i: 0.0 for i in self.responsible}

    def accept(self, rater: int, target: int, value: int, time: float = 0.0) -> None:
        """Store one rating about a responsible node."""
        if target not in self.responsible:
            raise UnknownNodeError(target, self.n)
        self.ledger.add(rater, target, value, time)

    def matrix(self) -> RatingMatrix:
        """Count matrix over this shard's events."""
        return self.ledger.to_matrix()

    def compute(self, system: ReputationSystem) -> Dict[int, float]:
        """Recompute published reputations for responsible nodes."""
        rep = system.compute(self.matrix())
        for i in self.responsible:
            self.published[i] = float(rep[i])
        return dict(self.published)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReputationShard(manager={self.manager_id}, "
            f"responsible={len(self.responsible)}, events={len(self.ledger)})"
        )


class DecentralizedReputationSystem:
    """A set of reputation managers sharding the universe over Chord.

    Parameters
    ----------
    n:
        Number of content nodes (ids ``0 .. n-1``).
    manager_addresses:
        Addresses (hashed onto the ring) of the power nodes acting as
        reputation managers; must be non-empty.
    system:
        Reputation system each shard runs; defaults to summation.
    space:
        Chord identifier space (32-bit default).

    Notes
    -----
    The assignment of node ``i`` to its manager uses
    ``ring.owner(hash(i))`` — identical to the paper's "the DHT owner of
    ``ID_i``".  All reads/writes route through the ring so that message
    and hop counts reflect a real deployment.
    """

    def __init__(
        self,
        n: int,
        manager_addresses: Iterable[Union[int, str]],
        system: Optional[ReputationSystem] = None,
        space: Optional[IdSpace] = None,
        messages: Optional[MessageCounter] = None,
    ):
        check_int_range("n", n, 1)
        self.n = n
        self.system = system if system is not None else SummationReputation()
        self.messages = messages if messages is not None else MessageCounter()
        self.ring = ChordRing(space if space is not None else IdSpace(32), self.messages)
        addresses = list(manager_addresses)
        if not addresses:
            raise ConfigurationError("at least one manager address is required")
        for addr in addresses:
            self.ring.add_node(addr)

        # node id -> ring key, node id -> manager ring id
        self._node_key: List[int] = [self.ring.space.hash(i) for i in range(n)]
        self._manager_of: List[int] = [self.ring.owner(k) for k in self._node_key]

        self.shards: Dict[int, ReputationShard] = {}
        for mid in self.ring.node_ids:
            responsible = [i for i in range(n) if self._manager_of[i] == mid]
            self.shards[mid] = ReputationShard(mid, n, responsible)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def manager_of(self, node: int) -> int:
        """Ring id of the reputation manager responsible for ``node``."""
        if not 0 <= node < self.n:
            raise UnknownNodeError(node, self.n)
        return self._manager_of[node]

    def shard_of(self, node: int) -> ReputationShard:
        """The shard holding ``node``'s ratings."""
        return self.shards[self.manager_of(node)]

    # ------------------------------------------------------------------
    # the paper's Insert / Lookup
    # ------------------------------------------------------------------
    def submit_rating(self, rater: int, target: int, value: int,
                      time: float = 0.0) -> None:
        """``Insert(ID_target, rating)`` — route the rating to its manager."""
        if not 0 <= target < self.n:
            raise UnknownNodeError(target, self.n)
        key = self._node_key[target]
        owner_id, hops = self.ring.find_successor(key)
        self.messages.record("insert_rating", rater, owner_id, hops)
        self.shards[owner_id].accept(rater, target, value, time)

    def update(self) -> None:
        """Every manager recomputes its responsible nodes' reputations."""
        for shard in self.shards.values():
            shard.compute(self.system)

    def reputation_of(self, node: int, querier: Optional[int] = None) -> float:
        """``Lookup(ID_node)`` — fetch the published reputation via the ring."""
        if not 0 <= node < self.n:
            raise UnknownNodeError(node, self.n)
        key = self._node_key[node]
        owner_id, hops = self.ring.find_successor(key)
        self.messages.record("lookup_reputation", querier if querier is not None else -1,
                             owner_id, hops)
        return self.shards[owner_id].published[node]

    # ------------------------------------------------------------------
    # manager churn
    # ------------------------------------------------------------------
    def _migrate_node(self, node: int, source: ReputationShard,
                      destination: ReputationShard) -> None:
        """Move one node's ratings and published value between shards."""
        ledger = source.ledger
        mask = ledger.targets == node
        if mask.any():
            destination.ledger.extend(
                ledger.raters[mask],
                ledger.targets[mask],
                ledger.values[mask].astype(np.int64),
                ledger.times[mask],
            )
        destination.published[node] = source.published.get(node, 0.0)

    def _reshard(self) -> None:
        """Recompute node->manager ownership and migrate moved state.

        Called after ring membership changes.  Ratings held for a node
        whose owner changed are replayed into the new owner's ledger;
        the old shard objects are rebuilt so stale rows never linger.
        """
        new_manager_of = [self.ring.owner(k) for k in self._node_key]
        new_shards: Dict[int, ReputationShard] = {}
        for mid in self.ring.node_ids:
            responsible = [i for i in range(self.n) if new_manager_of[i] == mid]
            new_shards[mid] = ReputationShard(mid, self.n, responsible)
        for node in range(self.n):
            old_mid = self._manager_of[node]
            source = self.shards.get(old_mid)
            if source is None:
                continue
            self._migrate_node(node, source, new_shards[new_manager_of[node]])
        self._manager_of = new_manager_of
        self.shards = new_shards

    def add_manager(self, address: Union[int, str]) -> int:
        """A new power node joins the manager ring; returns its ring id.

        Nodes whose hashed id now falls in the newcomer's arc migrate —
        ratings and published values move with them (counted as local
        state transfer, not routed messages, matching Chord's bulk key
        hand-off on join).
        """
        node = self.ring.add_node(address)
        self._reshard()
        return node.node_id

    def remove_manager(self, manager_id: int) -> None:
        """A manager leaves; its responsibilities fold into successors.

        Raises
        ------
        ConfigurationError
            If this is the last manager (the system would lose all
            state with no successor to absorb it).
        """
        if len(self.shards) <= 1:
            raise ConfigurationError("cannot remove the last reputation manager")
        if manager_id not in self.shards:
            from repro.errors import DHTError

            raise DHTError(f"no manager with ring id {manager_id}")
        self.ring.leave(manager_id)
        self._reshard()

    # ------------------------------------------------------------------
    # global views (for tests / detector integration)
    # ------------------------------------------------------------------
    def global_matrix(self) -> RatingMatrix:
        """Union of all shard matrices — must equal the centralized view."""
        out = RatingMatrix(self.n)
        # One bulk build over every shard's ledger: each add_events
        # call re-sorts the stored entries.
        ledgers = [shard.ledger for shard in self.shards.values()]
        if ledgers:
            out.add_events(np.concatenate([led.raters for led in ledgers]),
                           np.concatenate([led.targets for led in ledgers]),
                           np.concatenate([led.values for led in ledgers]))
        return out

    def published_vector(self) -> np.ndarray:
        """All published reputations as one vector (no routing cost)."""
        rep = np.zeros(self.n, dtype=float)
        for shard in self.shards.values():
            for node, value in shard.published.items():
                rep[node] = value
        return rep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecentralizedReputationSystem(n={self.n}, "
            f"managers={len(self.shards)}, system={self.system.name!r})"
        )
