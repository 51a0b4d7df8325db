"""Per-function control-flow graphs for the path-sensitive rules.

The graph is statement-granular: every simple statement is its own
node (a degenerate basic block — one statement per block keeps the
per-node checks trivial and the node count small, functions here
run tens of statements, not thousands).  Compound statements
contribute *header* nodes (``test`` for ``if``/``while``/``for``,
``stmt`` for ``with``) plus the nodes of their bodies; ``try`` adds
synthetic ``handlers``/``final`` dispatch nodes.

Exception modelling
-------------------

* A statement "may raise" (default: it contains a call, an ``assert``,
  or *is* a ``raise``) gets an ``exc`` edge to the innermost enclosing
  ``try``'s handler dispatch, chained through any intervening
  ``finally`` blocks, and to the synthetic ``raise`` exit when nothing
  encloses it.  Callers can tighten or widen the predicate via
  ``may_raise=``.
* Handler headers test in order: a ``true`` edge into the handler
  body, a ``false`` edge to the next handler (or onward/outward when
  the exception matches none).  ``except:``, ``except Exception`` and
  ``except BaseException`` are catch-alls with no ``false`` edge.
* ``finally`` blocks are built **once** and receive edges from every
  reason that can enter them (normal completion, exception, return,
  break, continue); their exit frontier fans out to the union of the
  pending continuations.  This over-approximates paths — a normal
  completion appears able to leave via the return continuation — which
  is the conservative direction for every rule built on top.
* ``with`` is an acquisition header plus its body; ``__exit__``
  suppression is not modelled (exceptions in the body propagate).

Edge kinds are about the *source* slot: ``next`` (fall-through),
``true``/``false`` (branch outcomes), ``exc`` (exception flow).  The
synthetic ``raise`` node is the "an exception escaped this function"
exit, distinct from the normal ``exit``.

``dump()`` renders the graph as deterministic text — the golden-test
surface (tests/analysis/test_cfg.py).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CFGNode",
    "ControlFlowGraph",
    "build_cfg",
    "stmt_may_raise",
    "stmt_exprs",
    "NEXT",
    "TRUE",
    "FALSE",
    "EXC",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

NEXT = "next"
TRUE = "true"
FALSE = "false"
EXC = "exc"

ENTRY_NID = 0
EXIT_NID = 1
RAISE_NID = 2

_CATCH_ALL_TYPES = ("Exception", "BaseException")
_LABEL_WIDTH = 60


def _src(node: Optional[ast.AST]) -> str:
    """One-line source text for a node label (never raises)."""
    if node is None:
        return ""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        return "<expr>"
    text = " ".join(text.split())
    if len(text) > _LABEL_WIDTH:
        text = text[: _LABEL_WIDTH - 3] + "..."
    return text


def _contains_call(node: ast.AST) -> bool:
    """Does evaluating ``node`` run a call?  Nested defs/lambdas are
    skipped: their bodies execute later, not here."""
    if isinstance(node, ast.Call):
        return True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda, ast.ClassDef)):
        return False
    return any(_contains_call(child) for child in ast.iter_child_nodes(node))


def stmt_may_raise(stmt: ast.stmt) -> bool:
    """Default raising predicate: calls, asserts and explicit raises."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return _contains_call(stmt)


def stmt_exprs(stmt: ast.AST) -> List[ast.expr]:
    """The expressions a node's *own* execution evaluates.

    Compound statements evaluate only their headers at their node —
    ``if``/``while`` the test, ``for`` the iterable, ``with`` the
    context expressions; body statements have nodes of their own.
    ``try`` dispatch nodes and nested ``def``/``class`` statements
    evaluate nothing here (their bodies run elsewhere/later).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.ExceptHandler, ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


@dataclass
class CFGNode:
    """One node: a statement, a branch header, or a synthetic exit."""

    nid: int
    kind: str  # entry|exit|raise|stmt|test|handler|handlers|final
    label: str
    stmt: Optional[ast.AST] = None
    succ: List[Tuple[int, str]] = field(default_factory=list)
    pred: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    """The built graph; ``entry``/``exit``/``raise`` are nids 0/1/2."""

    fn: FunctionNode
    nodes: List[CFGNode]

    entry_nid: int = ENTRY_NID
    exit_nid: int = EXIT_NID
    raise_nid: int = RAISE_NID

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def successors(self, nid: int,
                   kinds: Optional[Sequence[str]] = None) -> List[int]:
        return [dst for dst, kind in self.nodes[nid].succ
                if kinds is None or kind in kinds]

    def predecessors(self, nid: int,
                     kinds: Optional[Sequence[str]] = None) -> List[int]:
        return [src for src, kind in self.nodes[nid].pred
                if kinds is None or kind in kinds]

    def node_of(self, stmt: ast.AST) -> Optional[int]:
        """The nid whose node was created for this AST statement."""
        return self._index.get(id(stmt))

    def dump(self) -> str:
        """Deterministic text rendering (the golden-test surface)."""
        lines = []
        for node in self.nodes:
            head = f"[{node.nid} {node.kind}]"
            if node.label:
                head += f" {node.label}"
            edges = " ".join(f"{kind}->{dst}" for dst, kind in node.succ)
            lines.append(head + (f" :: {edges}" if edges else ""))
        return "\n".join(lines)

    # populated by the builder
    _index: Dict[int, int] = field(default_factory=dict, repr=False)


# Jump-routing frames -------------------------------------------------

@dataclass
class _HandlerFrame:
    dispatch: int


# A pending-jump list collects (src, kind) frontier entries whose
# target is not known yet (loop breaks while the loop is being built).
_Pending = List[Tuple[int, str]]
_ContTarget = Union[int, _Pending]


@dataclass
class _FinallyFrame:
    marker: int
    continuations: List[_ContTarget] = field(default_factory=list)


@dataclass
class _LoopFrame:
    head: int
    breaks: _Pending = field(default_factory=list)


_Frame = Union[_HandlerFrame, _FinallyFrame, _LoopFrame]
_Frontier = List[Tuple[int, str]]


class _Builder:
    def __init__(self, fn: FunctionNode,
                 may_raise: Callable[[ast.stmt], bool]) -> None:
        self.fn = fn
        self.may_raise = may_raise
        self.nodes: List[CFGNode] = []
        self.index: Dict[int, int] = {}
        self._new("entry", "")
        self._new("exit", "")
        self._new("raise", "")
        self.frames: List[_Frame] = []

    # -- graph primitives ---------------------------------------------
    def _new(self, kind: str, label: str,
             stmt: Optional[ast.AST] = None) -> CFGNode:
        node = CFGNode(nid=len(self.nodes), kind=kind, label=label, stmt=stmt)
        self.nodes.append(node)
        if stmt is not None and id(stmt) not in self.index:
            self.index[id(stmt)] = node.nid
        return node

    def _edge(self, src: int, dst: int, kind: str) -> None:
        node = self.nodes[src]
        if (dst, kind) not in node.succ:
            node.succ.append((dst, kind))
            self.nodes[dst].pred.append((src, kind))

    def _connect(self, frontier: _Frontier, dst: int) -> None:
        for src, kind in frontier:
            self._edge(src, dst, kind)

    # -- jump routing through finally chains --------------------------
    def _route(self, frontier: _Frontier, reason: str) -> None:
        """Send ``frontier`` out of the current region for ``reason``
        (exc/return/break/continue), chaining through every enclosing
        ``finally`` the jump must execute on its way."""
        fins: List[_FinallyFrame] = []
        sink: _ContTarget
        sink = RAISE_NID if reason == "exc" else EXIT_NID
        for frame in reversed(self.frames):
            if isinstance(frame, _FinallyFrame):
                fins.append(frame)
            elif isinstance(frame, _HandlerFrame) and reason == "exc":
                sink = frame.dispatch
                break
            elif isinstance(frame, _LoopFrame) and reason in ("break",
                                                              "continue"):
                sink = frame.breaks if reason == "break" else frame.head
                break
        first: _ContTarget = fins[0].marker if fins else sink
        self._connect_target(frontier, first)
        for fin, nxt in zip(fins, fins[1:]):
            self._add_continuation(fin, nxt.marker)
        if fins:
            self._add_continuation(fins[-1], sink)

    def _connect_target(self, frontier: _Frontier,
                        target: _ContTarget) -> None:
        if isinstance(target, list):
            target.extend(frontier)
        else:
            self._connect(frontier, target)

    @staticmethod
    def _add_continuation(fin: _FinallyFrame, target: _ContTarget) -> None:
        for existing in fin.continuations:
            if existing is target or existing == target:
                return
        fin.continuations.append(target)

    # -- statement dispatch -------------------------------------------
    def build(self) -> ControlFlowGraph:
        frontier = self._body(self.fn.body, [(ENTRY_NID, NEXT)])
        self._connect(frontier, EXIT_NID)
        graph = ControlFlowGraph(fn=self.fn, nodes=self.nodes)
        graph._index = self.index
        return graph

    def _body(self, stmts: Sequence[ast.stmt],
              frontier: _Frontier) -> _Frontier:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._jump(stmt, "return", frontier)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, frontier)
        if isinstance(stmt, ast.Break):
            return self._jump(stmt, "break", frontier)
        if isinstance(stmt, ast.Continue):
            return self._jump(stmt, "continue", frontier)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node = self._new("stmt", f"def {stmt.name}", stmt)
            self._connect(frontier, node.nid)
            return [(node.nid, NEXT)]
        if isinstance(stmt, ast.ClassDef):
            node = self._new("stmt", f"class {stmt.name}", stmt)
            self._connect(frontier, node.nid)
            return [(node.nid, NEXT)]
        return self._simple(stmt, frontier)

    def _simple(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        node = self._new("stmt", _src(stmt), stmt)
        self._connect(frontier, node.nid)
        if self.may_raise(stmt):
            self._route([(node.nid, EXC)], "exc")
        return [(node.nid, NEXT)]

    def _if(self, stmt: ast.If, frontier: _Frontier) -> _Frontier:
        test = self._new("test", f"if {_src(stmt.test)}", stmt)
        self._connect(frontier, test.nid)
        if _contains_call(stmt.test):
            self._route([(test.nid, EXC)], "exc")
        then_f = self._body(stmt.body, [(test.nid, TRUE)])
        if stmt.orelse:
            else_f = self._body(stmt.orelse, [(test.nid, FALSE)])
        else:
            else_f = [(test.nid, FALSE)]
        return then_f + else_f

    def _while(self, stmt: ast.While, frontier: _Frontier) -> _Frontier:
        test = self._new("test", f"while {_src(stmt.test)}", stmt)
        self._connect(frontier, test.nid)
        if _contains_call(stmt.test):
            self._route([(test.nid, EXC)], "exc")
        loop = _LoopFrame(head=test.nid)
        self.frames.append(loop)
        body_f = self._body(stmt.body, [(test.nid, TRUE)])
        self.frames.pop()
        self._connect(body_f, test.nid)  # back edge
        out: _Frontier = [(test.nid, FALSE)]
        if stmt.orelse:  # loop-else: runs on exhaustion, skipped by break
            out = self._body(stmt.orelse, out)
        return out + loop.breaks

    def _for(self, stmt: Union[ast.For, ast.AsyncFor],
             frontier: _Frontier) -> _Frontier:
        label = f"for {_src(stmt.target)} in {_src(stmt.iter)}"
        test = self._new("test", label, stmt)
        self._connect(frontier, test.nid)
        if _contains_call(stmt.iter):
            self._route([(test.nid, EXC)], "exc")
        loop = _LoopFrame(head=test.nid)
        self.frames.append(loop)
        body_f = self._body(stmt.body, [(test.nid, TRUE)])
        self.frames.pop()
        self._connect(body_f, test.nid)
        out: _Frontier = [(test.nid, FALSE)]
        if stmt.orelse:
            out = self._body(stmt.orelse, out)
        return out + loop.breaks

    def _with(self, stmt: Union[ast.With, ast.AsyncWith],
              frontier: _Frontier) -> _Frontier:
        items = ", ".join(
            _src(item.context_expr)
            + (f" as {_src(item.optional_vars)}" if item.optional_vars else "")
            for item in stmt.items
        )
        node = self._new("stmt", f"with {items}", stmt)
        self._connect(frontier, node.nid)
        if any(_contains_call(item.context_expr) for item in stmt.items):
            self._route([(node.nid, EXC)], "exc")
        return self._body(stmt.body, [(node.nid, NEXT)])

    def _try(self, stmt: ast.Try, frontier: _Frontier) -> _Frontier:
        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            marker = self._new("final", "<finally>", stmt)
            fin_frame = _FinallyFrame(marker=marker.nid)
            self.frames.append(fin_frame)
        dispatch: Optional[CFGNode] = None
        if stmt.handlers:
            dispatch = self._new("handlers", "<except>", stmt)
            self.frames.append(_HandlerFrame(dispatch=dispatch.nid))
        body_f = self._body(stmt.body, frontier)
        if stmt.handlers:
            self.frames.pop()  # handlers do not cover else/handler bodies
            if stmt.orelse:
                body_f = self._body(stmt.orelse, body_f)
            assert dispatch is not None
            pending: _Frontier = [(dispatch.nid, EXC)]
            for handler in stmt.handlers:
                label = (f"except {_src(handler.type)}" if handler.type
                         else "except")
                h = self._new("handler", label, handler)
                self._connect(pending, h.nid)
                body_f += self._body(handler.body, [(h.nid, TRUE)])
                if handler.type is None or (
                    isinstance(handler.type, ast.Name)
                    and handler.type.id in _CATCH_ALL_TYPES
                ):
                    pending = []
                    break
                pending = [(h.nid, FALSE)]
            if pending:  # matched no handler: continue propagating
                self._route(pending, "exc")
        if stmt.finalbody:
            assert fin_frame is not None
            self.frames.pop()
            self._connect(body_f, fin_frame.marker)
            fin_f = self._body(stmt.finalbody,
                               [(fin_frame.marker, NEXT)])
            for target in fin_frame.continuations:
                self._connect_target(fin_f, target)
            body_f = fin_f
        return body_f

    def _jump(self, stmt: ast.stmt, reason: str,
              frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.Return):
            label = f"return {_src(stmt.value)}" if stmt.value else "return"
        else:
            label = reason
        node = self._new("stmt", label, stmt)
        self._connect(frontier, node.nid)
        if self.may_raise(stmt):
            self._route([(node.nid, EXC)], "exc")
        self._route([(node.nid, NEXT)], reason)
        return []

    def _raise(self, stmt: ast.Raise, frontier: _Frontier) -> _Frontier:
        node = self._new("stmt", _src(stmt), stmt)
        self._connect(frontier, node.nid)
        self._route([(node.nid, EXC)], "exc")
        return []


def build_cfg(fn: FunctionNode,
              may_raise: Callable[[ast.stmt], bool] = stmt_may_raise,
              ) -> ControlFlowGraph:
    """Build the control-flow graph of one function definition."""
    return _Builder(fn, may_raise).build()
