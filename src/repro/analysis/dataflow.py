"""Dataflow solvers over the per-function CFG (analysis/cfg.py).

Three layers, smallest first:

* :func:`solve` — a generic worklist fixpoint: caller supplies the
  transfer function and the (union) join; facts are frozensets so
  equality is structural and termination is the usual
  finite-lattice argument.
* :func:`reaching_definitions` — the classic forward may-analysis;
  used by tests and as the template for writing new analyses
  (docs/STATIC_ANALYSIS.md).
* :class:`TaintAnalysis` — a forward may-taint lattice seeded from
  configurable *source chains* (attribute paths like ``self.path``)
  and cleansed by configurable *sanitizer* callables.  REP010 is a
  thin rule over it; the spec lives on the rule so the mechanics stay
  policy-free here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.cfg import ControlFlowGraph

__all__ = [
    "solve",
    "reaching_definitions",
    "closure",
    "TaintSpec",
    "TaintAnalysis",
]

Fact = FrozenSet
Transfer = Callable[[int, Fact], Fact]


def solve(
    cfg: ControlFlowGraph,
    transfer: Transfer,
    init: Fact,
    direction: str = "forward",
    edge_kinds: Optional[Tuple[str, ...]] = None,
) -> Dict[int, Fact]:
    """Worklist fixpoint; returns each node's *input* fact.

    ``transfer(nid, fact)`` maps a node's input fact to its output;
    the join is set union (may-analyses — every rule here asks "can
    this happen on *some* path").  ``direction`` is ``forward`` or
    ``backward``; ``edge_kinds`` restricts which edges propagate
    (default: all, the conservative choice).
    """
    if direction == "forward":
        start = cfg.entry_nid

        def flow_in(nid: int) -> List[int]:
            return cfg.predecessors(nid, edge_kinds)

        def flow_out(nid: int) -> List[int]:
            return cfg.successors(nid, edge_kinds)
    elif direction == "backward":
        start = cfg.exit_nid

        def flow_in(nid: int) -> List[int]:
            return cfg.successors(nid, edge_kinds)

        def flow_out(nid: int) -> List[int]:
            return cfg.predecessors(nid, edge_kinds)
    else:
        raise ValueError(f"unknown direction {direction!r}")

    empty: Fact = frozenset()
    in_facts: Dict[int, Fact] = {node.nid: empty for node in cfg.nodes}
    in_facts[start] = init
    out_facts: Dict[int, Fact] = {}
    work: List[int] = [node.nid for node in cfg.nodes]
    while work:
        nid = work.pop()
        incoming = [out_facts[p] for p in flow_in(nid) if p in out_facts]
        if nid == start:
            incoming.append(init)
        merged: Fact = frozenset().union(*incoming) if incoming else empty
        in_facts[nid] = merged
        produced = transfer(nid, merged)
        if out_facts.get(nid) != produced:
            out_facts[nid] = produced
            for succ in flow_out(nid):
                if succ not in work:
                    work.append(succ)
    return in_facts


def closure(starts: Iterable[int],
            neighbors: Callable[[int], Iterable[int]]) -> Set[int]:
    """Transitive closure of ``starts`` under ``neighbors`` (inclusive).

    The reachability primitive behind the path-sensitive rules:
    "is some mutation already applied here" is a closure over
    successor edges from the mutation nodes, "does a mutation still
    lie ahead" a closure over predecessor edges.
    """
    seen: Set[int] = set()
    work = list(starts)
    while work:
        nid = work.pop()
        if nid in seen:
            continue
        seen.add(nid)
        work.extend(neighbors(nid))
    return seen


# ---------------------------------------------------------------------
# reaching definitions
# ---------------------------------------------------------------------

def _assigned_names(stmt: ast.AST) -> List[str]:
    """Plain names (re)bound by executing this one statement."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in stmt.items
                   if item.optional_vars is not None]
    names: List[str] = []
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.append(node.id)
    return names


def reaching_definitions(
    cfg: ControlFlowGraph,
) -> Dict[int, FrozenSet[Tuple[str, int]]]:
    """``(name, defining nid)`` pairs that may reach each node's entry.

    Parameters are definitions at the entry node (nid 0)."""
    params = cfg.fn.args
    all_args = (list(params.posonlyargs) + list(params.args)
                + list(params.kwonlyargs))
    if params.vararg:
        all_args.append(params.vararg)
    if params.kwarg:
        all_args.append(params.kwarg)
    init = frozenset((arg.arg, cfg.entry_nid) for arg in all_args)

    def transfer(nid: int, fact: Fact) -> Fact:
        stmt = cfg.node(nid).stmt
        if stmt is None:
            return fact
        names = _assigned_names(stmt)
        if not names:
            return fact
        kept = {pair for pair in fact if pair[0] not in names}
        kept.update((name, nid) for name in names)
        return frozenset(kept)

    return solve(cfg, transfer, init)


# ---------------------------------------------------------------------
# taint
# ---------------------------------------------------------------------

def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Dotted name path of an attribute/name expression, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class TaintSpec:
    """What is tainted and what cleanses it.

    ``source_chains``: attribute paths whose reads (and any calls on
    them) produce tainted values — e.g. ``("self", "path")`` taints
    ``self.path`` and ``self.path.split(...)``.
    ``sanitizers``: callable names (the last chain segment) whose
    return value is clean regardless of argument taint — the
    validator set.
    """

    source_chains: Tuple[Tuple[str, ...], ...]
    sanitizers: FrozenSet[str]


class TaintAnalysis:
    """Forward may-taint over local variable names."""

    def __init__(self, spec: TaintSpec) -> None:
        self.spec = spec

    # -- expression evaluation ----------------------------------------
    def expr_tainted(self, expr: ast.expr, tainted: FrozenSet[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        chain = _attr_chain(expr)
        if chain is not None:
            if any(chain[: len(source)] == source
                   for source in self.spec.source_chains):
                return True
            return chain[0] in tainted
        if isinstance(expr, ast.Call):
            func_chain = _attr_chain(expr.func)
            if func_chain is not None and func_chain[-1] in self.spec.sanitizers:
                return False
            if func_chain is not None and any(
                func_chain[: len(source)] == source
                for source in self.spec.source_chains
            ):
                return True  # calling a source (self._read_body()) taints
            if isinstance(expr.func, ast.Attribute) and self.expr_tainted(
                expr.func.value, tainted
            ):
                return True  # method call on a tainted object
            args = list(expr.args) + [kw.value for kw in expr.keywords]
            return any(self.expr_tainted(arg, tainted) for arg in args)
        if isinstance(expr, ast.Lambda):
            return False  # the body runs later, under its own frame
        if isinstance(expr, ast.Compare):
            return False  # a bool verdict about the data, not the data
        return any(
            self.expr_tainted(child, tainted)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    # -- node transfer -------------------------------------------------
    def _transfer(self, cfg: ControlFlowGraph, nid: int,
                  fact: FrozenSet[str]) -> FrozenSet[str]:
        stmt = cfg.node(nid).stmt
        if stmt is None:
            return fact
        if isinstance(stmt, ast.Assign):
            return self._bind(stmt.targets, stmt.value, fact)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return self._bind([stmt.target], stmt.value, fact)
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and self.expr_tainted(
                stmt.value, fact
            ):
                return fact | {stmt.target.id}
            return fact
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._bind([stmt.target], stmt.iter, fact)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            result = fact
            for item in stmt.items:
                if item.optional_vars is not None:
                    result = self._bind([item.optional_vars],
                                        item.context_expr, result)
            return result
        return fact

    def _bind(self, targets: List[ast.expr], value: ast.expr,
              fact: FrozenSet[str]) -> FrozenSet[str]:
        names = [node.id for target in targets
                 for node in ast.walk(target) if isinstance(node, ast.Name)]
        if not names:
            return fact
        if self.expr_tainted(value, fact):
            return fact | set(names)
        return fact - set(names)

    # -- solve ---------------------------------------------------------
    def run(self, cfg: ControlFlowGraph) -> Dict[int, FrozenSet[str]]:
        """Tainted local names at each node's entry."""
        return solve(
            cfg,
            lambda nid, fact: self._transfer(cfg, nid, fact),
            frozenset(),
        )
