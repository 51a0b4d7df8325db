"""REP006 — lock ordering: the acquisition graph must be acyclic.

Invariant (docs/SERVICE.md): the service may own several locks (the
coordinator's ingest lock, the counters' internal lock), and any two
locks ever held together must always be acquired in the same order —
a cycle in the lock-order graph is a potential deadlock that no test
will reliably reproduce under scheduling jitter.

Construction, on top of the whole-program call graph:

* per-function *direct* acquisitions come from ``with self.<attr>:``
  blocks where ``<attr>`` is a ``threading.Lock``/``RLock`` attribute
  of the enclosing class; ``*_locked`` methods are treated as entered
  with every lock of their class already held (the project's
  documented caller-holds-the-lock convention);
* each function's *may-acquire* set is the fixpoint of its direct
  acquisitions plus the may-acquire sets of its **resolved** callees —
  candidate (dynamic over-approximation) edges are excluded, because a
  speculative edge into a lock-taking function would fabricate
  deadlock reports (conversely to REP002, over-approximating here is
  unsafe in the *reporting* direction);
* an edge ``A → B`` means "B was acquired (or may be acquired by a
  callee) while A was held", witnessed by both acquisition sites.

Findings: one **error** per cycle in the lock-order graph, with every
acquisition site on the cycle named in the message; re-acquiring a
non-reentrant plain ``Lock`` while holding it (a self-cycle) is the
degenerate case and is reported too — an ``RLock`` self-edge is legal
and ignored.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    LockAcquire,
    LockKey,
    ModuleSummary,
    ProgramContext,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.lockset import Witness, direct_acquires, lock_universe, may_acquire
from repro.analysis.registry import Rule, register

__all__ = ["LockOrderRule"]

#: A witnessed acquisition: where, in which file.
_Witness = Witness                   # (display_path, site)

#: One lock-order edge A -> B with both acquisition sites.
_Edge = Tuple[LockKey, LockKey, _Witness, _Witness]


def _lock_name(key: LockKey) -> str:
    return f"{key[1]}.{key[2]}"


def _fmt(witness: _Witness) -> str:
    return f"{witness[0]}:{witness[1].line}"


@register
class LockOrderRule(Rule):
    rule_id = "REP006"
    title = "lock-order"
    severity = Severity.ERROR
    rationale = (
        "Two locks ever held together must be acquired in one global "
        "order; a cycle in the acquisition graph is a deadlock waiting "
        "for the right scheduling. The graph is built from with-lock "
        "blocks and *_locked conventions propagated through resolved "
        "call edges, so the order is checked across function and "
        "module boundaries."
    )
    #: Lock-owning classes live in service/ and util/; the graph is
    #: built program-wide so a cross-layer inversion is still a cycle.
    scope = ()
    whole_program = True

    # ------------------------------------------------------------------
    # The lock universe and may-acquire fixpoint live in
    # repro.analysis.lockset so the guard-inference rules (REP011/012)
    # share the exact summaries this rule propagates.

    def _edges(self, program: ProgramContext) -> List[_Edge]:
        direct = direct_acquires(program)
        may = may_acquire(program, direct)
        edges: List[_Edge] = []

        def lock_of(mod: ModuleSummary, cls: str,
                    acq: LockAcquire) -> Optional[LockKey]:
            csum = mod.classes.get(cls)
            if csum is not None and acq.attr in csum.lock_attrs:
                return (mod.module_path, cls, acq.attr)
            return None

        for mod, fsum, key in program.iter_functions():
            if not fsum.cls:
                continue
            # Lexically nested with-blocks.
            for outer, inner in fsum.held_acquires:
                a = lock_of(mod, fsum.cls, outer)
                b = lock_of(mod, fsum.cls, inner)
                if a is not None and b is not None:
                    edges.append((a, b, (mod.display_path, outer.site),
                                  (mod.display_path, inner.site)))
            # Calls made while holding a lock: everything the callee
            # may transitively acquire is acquired "inside" it.
            for outer, ref in fsum.held_calls:
                a = lock_of(mod, fsum.cls, outer)
                if a is None:
                    continue
                callee = program.resolve_held_call(mod.module_path,
                                                   fsum.cls, ref)
                if callee is None:
                    continue
                for b, witness in may.get(callee, {}).items():
                    edges.append((a, b, (mod.display_path, outer.site),
                                  witness))
            # *_locked methods: every call in the body runs under the
            # class's locks, and so does every direct acquisition.
            if fsum.locked_convention:
                csum = mod.classes.get(fsum.cls)
                if csum is None:
                    continue
                held: List[Tuple[LockKey, _Witness]] = [
                    ((mod.module_path, fsum.cls, attr),
                     (mod.display_path, fsum.site))
                    for attr in sorted(csum.lock_attrs)
                ]
                inner_locks: Dict[LockKey, _Witness] = {}
                for acq in fsum.acquires:
                    b = lock_of(mod, fsum.cls, acq)
                    if b is not None:
                        inner_locks.setdefault(
                            b, (mod.display_path, acq.site))
                for ref in fsum.calls:
                    callee = program.resolve_held_call(
                        mod.module_path, fsum.cls, ref)
                    if callee is None:
                        continue
                    for b, witness in may.get(callee, {}).items():
                        inner_locks.setdefault(b, witness)
                for a, site_a in held:
                    for b, site_b in inner_locks.items():
                        edges.append((a, b, site_a, site_b))
        return edges

    # ------------------------------------------------------------------
    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        universe = lock_universe(program)
        if not universe:
            return
        edges = self._edges(program)
        adjacency: Dict[LockKey, Dict[LockKey, Tuple[_Witness, _Witness]]] = {}
        self_deadlocks: List[_Edge] = []
        for a, b, site_a, site_b in edges:
            if a == b:
                # Reentrant locks may self-nest; a plain Lock self-edge
                # blocks forever.
                if universe.get(a) == "Lock":
                    self_deadlocks.append((a, b, site_a, site_b))
                continue
            adjacency.setdefault(a, {}).setdefault(b, (site_a, site_b))

        seen_self: Set[Tuple[LockKey, int]] = set()
        for a, _b, site_a, site_b in self_deadlocks:
            marker = (a, site_b[1].line)
            if marker in seen_self:
                continue
            seen_self.add(marker)
            yield self._finding(
                site_b,
                f"re-acquiring non-reentrant lock '{_lock_name(a)}' "
                f"already held since {_fmt(site_a)} — self-deadlock "
                f"(use RLock or restructure)",
            )

        for cycle in _cycles(adjacency):
            steps = []
            for i, lock in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                site_a, site_b = adjacency[lock][nxt]
                steps.append(
                    f"'{_lock_name(lock)}' held at {_fmt(site_a)} while "
                    f"acquiring '{_lock_name(nxt)}' at {_fmt(site_b)}"
                )
            anchor = adjacency[cycle[0]][cycle[1 % len(cycle)]][1]
            names = " -> ".join(_lock_name(lock) for lock in cycle)
            yield self._finding(
                anchor,
                f"lock-order cycle {names} -> {_lock_name(cycle[0])} "
                f"(potential deadlock): " + "; ".join(steps),
            )

    def _finding(self, anchor: _Witness, message: str) -> Finding:
        display_path, site = anchor
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=display_path,
            line=site.line,
            col=site.col,
            message=message,
        )


def _cycles(
    adjacency: Dict[LockKey, Dict[LockKey, Tuple[_Witness, _Witness]]]
) -> List[List[LockKey]]:
    """One representative cycle per strongly connected component.

    Deterministic: nodes are visited in sorted order and the first
    cycle found inside each multi-node SCC is reported.  One finding
    per SCC keeps a K-lock tangle from exploding into K! reports.
    """
    index: Dict[LockKey, int] = {}
    low: Dict[LockKey, int] = {}
    on_stack: Set[LockKey] = set()
    stack: List[LockKey] = []
    sccs: List[List[LockKey]] = []
    counter = [0]

    def strongconnect(node: LockKey) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for nxt in sorted(adjacency.get(node, {})):
            if nxt not in index:
                strongconnect(nxt)
                low[node] = min(low[node], low[nxt])
            elif nxt in on_stack:
                low[node] = min(low[node], index[nxt])
        if low[node] == index[node]:
            component: List[LockKey] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                sccs.append(sorted(component))

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)

    cycles: List[List[LockKey]] = []
    for component in sccs:
        cycle = _shortest_cycle(adjacency, set(component), component[0])
        if cycle is not None:
            cycles.append(cycle)
    return cycles


def _shortest_cycle(
    adjacency: Dict[LockKey, Dict[LockKey, Tuple[_Witness, _Witness]]],
    members: Set[LockKey],
    start: LockKey,
) -> Optional[List[LockKey]]:
    """BFS for the shortest ``start -> ... -> start`` cycle in the SCC."""
    prev: Dict[LockKey, LockKey] = {}
    queue: List[LockKey] = []
    for nxt in sorted(adjacency.get(start, {})):
        if nxt in members and nxt not in prev:
            prev[nxt] = start
            queue.append(nxt)
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        if start in adjacency.get(current, {}):
            path = [current]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return list(reversed(path))
        for nxt in sorted(adjacency.get(current, {})):
            if nxt in members and nxt not in prev:
                prev[nxt] = current
                queue.append(nxt)
    return None  # pragma: no cover - strong connectivity guarantees a cycle
