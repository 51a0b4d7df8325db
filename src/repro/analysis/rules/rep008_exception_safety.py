"""REP008 — exception-safe shared-state mutation (the zero-trace 429).

Invariant (docs/SERVICE.md, PR 7): a rejected or failed operation must
leave *zero* partial state — ``BackpressureError`` and friends promise
the caller that nothing was half-applied.  For any lock-owning class
in ``service/`` (shared concurrent objects own a
``threading.Lock``/``RLock``; thread- and process-confined state does
not), the rule flags statements that can raise *unprotected* while
shared-state mutations have already applied on some path behind them
**and** more mutations still lie ahead on a normal path — the exact
shape where an escaping exception strands the object between two
self-consistent states.

Path sensitivity comes from the CFG (analysis/cfg.py) plus two
reachability closures over its normal (non-``exc``) edges:

* *behind*: nodes reachable from some mutation's successors — "a
  mutation may already have applied when we get here";
* *ahead*: nodes from which some mutation is still reachable — "more
  mutation was coming".

A statement is an unprotected raiser when it is lexically outside
every ``try`` body in the function (a ``try`` — with handlers *or*
``finally`` — is the project's hook for rollback/commit, so anything
under one is considered handled; handler and ``finally`` bodies are
the rollback mechanism itself and are likewise exempt) and it raises
or calls something not on the safe list.  The fix the rule points at is the staging pattern:
read and compute into locals, commit the attribute writes in one
non-raising tail — or wrap the region in ``try``/``finally`` rollback.

``__init__`` is exempt (the object is not yet shared), and so are
``metrics`` chains (counters are monotonic diagnostics, not state the
zero-trace contract covers).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.cfg import FALSE, NEXT, TRUE, build_cfg, stmt_exprs
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register
from repro.analysis.rules._ast_util import attr_chain

__all__ = ["ExceptionSafetyRule", "closure"]

_LOCK_CTORS = frozenset({"Lock", "RLock"})

#: Edge kinds that model normal execution; ``exc`` edges land in
#: handler/rollback code, which must not count as "mutation ahead".
_NORMAL_EDGES = (NEXT, TRUE, FALSE)


def closure(starts: Iterable[int],
            neighbors: Callable[[int], Iterable[int]]) -> Set[int]:
    """Transitive closure of ``starts`` under ``neighbors`` (inclusive).

    "Is some mutation already applied here" is a closure over successor
    edges from the mutation nodes, "does a mutation still lie ahead" a
    closure over predecessor edges.
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


#: Methods that mutate the container they are called on.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "remove", "discard", "clear", "popleft", "appendleft",
})

#: Calls whose failure modes are out of scope: builtins that raise
#: only on programming errors, container access, lock methods, time
#: sources.  Everything *not* listed is assumed able to raise — I/O,
#: IPC, numpy, and first-party helpers all stay "raising", which is
#: the conservative direction for this rule.
_SAFE_CALL_NAMES = frozenset({
    # builtins
    "len", "int", "float", "str", "bool", "repr", "format", "abs",
    "min", "max", "sum", "sorted", "list", "dict", "set", "tuple",
    "frozenset", "range", "enumerate", "zip", "isinstance",
    "issubclass", "getattr", "hasattr", "setattr", "id", "type",
    "print", "vars", "iter", "next", "round", "divmod", "hash",
    "cast",  # typing.cast is an identity at runtime

    # container / lock / misc methods that do not do I/O
    "get", "pop", "items", "keys", "values", "copy", "index",
    "count", "qsize", "acquire", "release", "locked", "keys",
    "startswith", "endswith", "split", "rsplit", "join", "strip",
    "lower", "upper", "encode", "decode", "replace",
} | _MUTATOR_METHODS)

#: Module prefixes whose calls are treated as non-raising (clocks,
#: logging — neither raises in practice nor touches shared state).
_SAFE_CALL_BASES = frozenset({"time", "logging", "math"})

#: Attribute-chain segments exempt from mutation tracking.
_EXEMPT_SEGMENTS = frozenset({"metrics"})

_CONTAINER_CTORS = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
    "Counter",
})

_FnDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_lock_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    if not chain:
        return False
    if len(chain) == 1:
        return chain[0] in _LOCK_CTORS
    return chain[-2] == "threading" and chain[-1] in _LOCK_CTORS


def _is_container_value(node: ast.AST) -> bool:
    """Literal/ctor container values: ``[]``, ``{}``, ``deque()`` …"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        return bool(chain) and chain[-1] in _CONTAINER_CTORS
    return False


def _iter_calls(expr: ast.AST) -> Iterator[ast.Call]:
    """Calls evaluated by ``expr`` now — lambda bodies run later."""
    if isinstance(expr, ast.Lambda):
        return
    if isinstance(expr, ast.Call):
        yield expr
    for child in ast.iter_child_nodes(expr):
        yield from _iter_calls(child)


def _self_attr_target(target: ast.AST) -> Optional[Tuple[str, ...]]:
    """Chain when ``target`` writes ``self.<attr>`` or into it."""
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    chain = attr_chain(target)
    if chain and len(chain) >= 2 and chain[0] == "self":
        return tuple(chain)
    return None


@register
class ExceptionSafetyRule(Rule):
    rule_id = "REP008"
    title = "exception-safe-mutation"
    severity = Severity.ERROR
    rationale = (
        "A failed operation must leave zero partial state (the "
        "all-or-nothing 429 contract). A statement that can raise "
        "outside any try, after some shared-state writes and before "
        "others, strands the object between two consistent states. "
        "Stage into locals and commit in a non-raising tail, or wrap "
        "the region in try/finally rollback."
    )
    scope = ("service/",)

    # -- class-level facts --------------------------------------------
    def _lock_attrs(self, cls: ast.ClassDef) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                for target in node.targets:
                    chain = attr_chain(target)
                    if chain and len(chain) == 2 and chain[0] == "self":
                        out.add(chain[1])
        return out

    def _container_attrs(self, cls: ast.ClassDef) -> Set[str]:
        """Attrs the class initializes to container literals/ctors."""
        out: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_container_value(node.value):
                for target in node.targets:
                    chain = attr_chain(target)
                    if chain and len(chain) == 2 and chain[0] == "self":
                        out.add(chain[1])
        return out

    # -- per-statement classification ---------------------------------
    def _mutates(self, stmt: ast.AST, containers: Set[str]) -> Optional[str]:
        """The shared attribute this node's execution mutates, if any."""
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                sub = list(target.elts)
            else:
                sub = [target]
            for t in sub:
                chain = _self_attr_target(t)
                if chain and not _EXEMPT_SEGMENTS & set(chain):
                    return chain[1]
        # Mutator-method calls on container attributes: only attrs the
        # class initializes to container literals count, so a call like
        # self.wal.append(...) on an injected collaborator is the
        # collaborator's business, not a mutation of *this* object.
        for expr in stmt_exprs(stmt):
            for call in _iter_calls(expr):
                chain = attr_chain(call.func)
                if (chain and len(chain) == 3 and chain[0] == "self"
                        and chain[2] in _MUTATOR_METHODS
                        and chain[1] in containers
                        and not _EXEMPT_SEGMENTS & set(chain)):
                    return chain[1]
        return None

    def _raises_unprotected(self, stmt: ast.AST,
                            protected: FrozenSet[int]) -> bool:
        if id(stmt) in protected:
            return False
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return True
        for expr in stmt_exprs(stmt):
            for call in _iter_calls(expr):
                chain = attr_chain(call.func)
                if chain is None:
                    return True  # computed callee — assume it can raise
                if _EXEMPT_SEGMENTS & set(chain):
                    continue
                if chain[0] in _SAFE_CALL_BASES and len(chain) > 1:
                    continue
                if chain[-1] in _SAFE_CALL_NAMES:
                    continue
                return True
        return False

    def _protected_ids(self, fn: _FnDef) -> FrozenSet[int]:
        """ids of statements lexically under some ``try`` body."""
        out: Set[int] = set()

        def visit(stmts: List[ast.stmt], protected: bool) -> None:
            for s in stmts:
                if protected:
                    out.add(id(s))
                if isinstance(s, ast.Try):
                    visit(s.body, True)
                    # Handler/finally bodies ARE the rollback hook the
                    # rule asks for; re-flagging inside them would
                    # punish the fix.
                    for handler in s.handlers:
                        visit(handler.body, True)
                    visit(s.orelse, protected)
                    visit(s.finalbody, True)
                elif isinstance(s, (ast.If,)):
                    visit(s.body, protected)
                    visit(s.orelse, protected)
                elif isinstance(s, (ast.While, ast.For, ast.AsyncFor)):
                    visit(s.body, protected)
                    visit(s.orelse, protected)
                elif isinstance(s, (ast.With, ast.AsyncWith)):
                    visit(s.body, protected)
                # nested defs/classes are separate scopes

        visit(list(fn.body), False)
        return frozenset(out)

    # -- the path-sensitive check -------------------------------------
    def _check_method(self, ctx: FileContext, cls: ast.ClassDef,
                      fn: _FnDef, containers: Set[str]) -> Iterator[Finding]:
        cfg = build_cfg(fn)
        mut_nids: List[int] = []
        mut_attr: Dict[int, str] = {}
        for node in cfg.nodes:
            if node.stmt is None or node.kind in ("handlers", "handler",
                                                  "final"):
                continue
            attr = self._mutates(node.stmt, containers)
            if attr is not None:
                mut_nids.append(node.nid)
                mut_attr[node.nid] = attr
        if len(mut_nids) < 2:
            return  # a single write cannot be left half-applied

        def fwd(nid: int) -> List[int]:
            return cfg.successors(nid, _NORMAL_EDGES)

        def bwd(nid: int) -> List[int]:
            return cfg.predecessors(nid, _NORMAL_EDGES)

        # "some mutation may already have applied here"
        behind = closure([s for m in mut_nids for s in fwd(m)], fwd)
        # "some mutation still lies ahead on a normal path"
        ahead = closure([p for m in mut_nids for p in bwd(m)], bwd)

        protected = self._protected_ids(fn)
        reported: Set[int] = set()
        for node in cfg.nodes:
            if node.stmt is None or node.kind in ("handlers", "handler"):
                continue
            if node.nid not in behind or node.nid not in ahead:
                continue
            if not self._raises_unprotected(node.stmt, protected):
                continue
            line = getattr(node.stmt, "lineno", 0)
            if line in reported:
                continue
            reported.add(line)
            done = sorted({mut_attr[m] for m in mut_nids
                           if node.nid in closure(fwd(m), fwd)})
            todo = sorted({mut_attr[m] for m in mut_nids
                           if node.nid in closure(bwd(m), bwd)})
            yield ctx.finding(
                self, node.stmt,
                f"'{cls.name}.{fn.name}' can raise here between shared-"
                f"state writes (applied: "
                f"{', '.join('self.' + a for a in done) or '?'}; still "
                f"ahead: {', '.join('self.' + a for a in todo) or '?'}) "
                f"with no enclosing try — an escaping exception leaves "
                f"the object half-updated. Stage into locals and commit "
                f"after the last raising call, or add try/finally "
                f"rollback",
            )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not self._lock_attrs(cls):
                continue  # thread-/process-confined: not shared state
            containers = self._container_attrs(cls)
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if stmt.name == "__init__":
                    continue
                yield from self._check_method(ctx, cls, stmt, containers)
