"""Whole-program symbol table and call graph for reprolint.

Per-file :class:`ModuleSummary` objects capture everything the
cross-file rules need — functions with their call references, ops
charges, matrix-sweep sites, lock acquisitions and the calls made while
holding each lock.

:class:`ProgramContext` links the summaries into a call graph:

* ``repro.*`` imports resolve through a project-wide symbol table
  (module → classes/functions, with one-level re-export chasing so
  ``from repro.core import BasicCollusionDetector`` resolves);
* ``self.method()`` resolves through the class and its first-party
  bases; ``self.a.b.method()`` walks the class-attribute *type map*
  inferred from ``self.a = ClassName(...)`` assignments (``X if cond
  else ClassName()`` unwraps to the constructing branch);
* ``ClassName(...)`` resolves to ``ClassName.__init__``;
* bare function references passed as call arguments — the
  ``functools.partial(f, ...)`` / bound-method callback idiom —
  contribute call edges when they resolve to a first-party function;
* anything dynamic (calls on parameters, subscripts, call results)
  becomes a conservative **candidate** edge to every first-party
  function or method sharing the bare name (dunder names excluded, so
  ``super().__init__()`` does not alias every constructor).

Rules choose their edge set: reachability rules (REP002) traverse
resolved + candidate edges — over-approximating callers is safe when
an extra caller can only *suppress* a finding; the lock-order rule
(REP006) propagates lock sets along **resolved edges only**, because a
speculative edge into a lock-taking function would fabricate deadlock
cycles that do not exist.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import EXC, build_cfg

__all__ = [
    "AttrAccess",
    "CallRef",
    "ClassSummary",
    "FunctionSummary",
    "LockAcquire",
    "ModuleSummary",
    "ProgramContext",
    "ResourceFact",
    "Site",
    "SWEEP_ATTRS",
    "SWEEP_METHODS",
    "is_ops_charge",
    "module_name",
    "summarize_module",
]

#: Backend-agnostic bulk accessors — every call is a matrix sweep.
SWEEP_METHODS = frozenset({"entries", "row_entries", "all_entries"})

#: Dense plane views — reading one sweeps (or materializes) n x n state.
SWEEP_ATTRS = frozenset({"counts", "positives", "negatives", "effective_counts"})

_LOCK_CTORS = frozenset({"Lock", "RLock"})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """The dotted-name parts of ``a.b.c`` (``["a", "b", "c"]``).

    Duplicated from :mod:`repro.analysis.rules._ast_util` (10 lines)
    rather than imported: the rules package imports this module, so an
    import here would be circular.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def is_ops_charge(node: ast.AST) -> bool:
    """Is ``node`` an ``<...>ops.add(...)`` call?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "add":
        return False
    chain = attr_chain(func)
    return bool(chain) and len(chain) >= 2 and chain[-2] == "ops"


def module_name(module_path: str) -> str:
    """Importable module name for a package-relative posix path.

    ``core/basic.py`` → ``repro.core.basic``; ``core/__init__.py`` →
    ``repro.core``.  Virtual fixture paths map the same way, which is
    all the resolver needs — consistency, not importability.
    """
    stem = module_path[:-3] if module_path.endswith(".py") else module_path
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + parts)


# ---------------------------------------------------------------------------
# Summary records


@dataclass
class Site:
    """One source location inside a module (line 1-based, col 0-based)."""

    line: int
    col: int


@dataclass
class CallRef:
    """One call (or callable reference) made by a function.

    ``kind`` describes how the callee was spelled:

    * ``name`` — bare name ``f(...)``;
    * ``self`` — ``self.<chain>(...)``, chain excludes ``self``;
    * ``var`` — ``x.<chain>(...)`` where ``x`` was locally assigned a
      first-party constructor result (``var_class`` holds the class
      reference as spelled at the assignment);
    * ``dotted`` — any other plain dotted chain (imports, params);
    * ``unknown`` — callee hangs off a subscript/call result; only the
      trailing attribute name is known.

    ``is_ref`` marks a bare callable *reference* in argument position
    (``partial(f)``, ``shard.call(self._drain)``): it contributes an
    edge only when it resolves — never a candidate edge, so data
    arguments cannot pollute the graph.
    """

    kind: str
    chain: Tuple[str, ...]
    var_class: str = ""
    is_ref: bool = False


@dataclass
class LockAcquire:
    """A ``with self.<attr>:`` acquisition site inside one function."""

    attr: str
    site: Site


@dataclass
class AttrAccess:
    """One ``self.<attr>`` read or write inside a method.

    The unit of evidence for the lockset layer
    (:mod:`repro.analysis.lockset`): ``held`` names the lock attributes
    of the enclosing class lexically held at the access (via ``with
    self.<lock>:`` regions), and ``in_handler`` marks except/finally
    bodies (the rollback convention the guard rules exempt).  ``kind``
    is ``write`` for assignments (including subscript stores and
    attribute stores through the object) and in-place mutator calls,
    ``read`` otherwise.
    """

    attr: str
    kind: str                           # "read" | "write"
    site: Site
    held: Tuple[str, ...] = ()
    in_handler: bool = False


@dataclass
class ResourceFact:
    """One resource acquisition (REP009's unit of evidence).

    Computed per function over the CFG at summary time; the
    whole-program pass only has to decide whether
    recorded hand-offs resolve to first-party callees (transfer) or
    not (leak).

    ``released`` means every normal path — plus the paths explicit
    ``raise`` statements open — from the acquisition to a function
    exit passes a release of the handle first: a ``.close()`` /
    ``.release()`` / … call, a ``with`` over it, a store (``self.x =
    h``, ``container.append(h)``), a return/yield of it, an aliasing
    assignment, or ``del``.  Exception edges of *calls* are not leak
    paths: demanding try/finally around every call would flag the
    whole tree, and the crash story is REP008's domain.
    """

    var: str                    # local handle name ("" when unnamed)
    kind: str                   # open|mmap|pipe|queue|shared_memory|tempfile
    site: Site
    managed: bool = False       # acquired by a with-statement
    escapes: bool = False       # bound straight to an attribute/subscript
    released: bool = True
    handoffs: List[CallRef] = field(default_factory=list)


@dataclass
class FunctionSummary:
    """Everything the program rules need about one function/method."""

    qualname: str                       # "Class.method" or "func"
    cls: str                            # "" for module-level functions
    name: str
    site: Site                          # the def statement
    is_public: bool
    charges_ops: bool
    locked_convention: bool             # method named *_locked
    sweeps: List[Tuple[Site, str]] = field(default_factory=list)
    calls: List[CallRef] = field(default_factory=list)
    acquires: List[LockAcquire] = field(default_factory=list)
    #: (outer acquisition, inner acquisition) for lexically nested locks.
    held_acquires: List[Tuple[LockAcquire, LockAcquire]] = field(default_factory=list)
    #: (acquisition, call made while holding it).
    held_calls: List[Tuple[LockAcquire, CallRef]] = field(default_factory=list)
    #: Resource acquisitions with their CFG-derived lifecycle verdicts.
    resources: List[ResourceFact] = field(default_factory=list)
    #: Every ``self.<attr>`` access with its lexical lock context.
    accesses: List[AttrAccess] = field(default_factory=list)
    #: ``(call ref, exact lexically-held lock attrs)`` per call site —
    #: recorded only for methods of lock-owning classes (elsewhere the
    #: held set is always empty and ``calls`` carries the same refs).
    call_locksets: List[Tuple[CallRef, Tuple[str, ...]]] = field(default_factory=list)
    #: Callable refs handed as ``target=`` to ``Thread``/``Process``.
    spawn_targets: List[CallRef] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: methods, bases, inferred attribute types, owned locks."""

    name: str
    bases: List[str] = field(default_factory=list)       # chain strings
    methods: List[str] = field(default_factory=list)
    attr_types: Dict[str, str] = field(default_factory=dict)
    lock_attrs: Dict[str, str] = field(default_factory=dict)  # attr -> Lock|RLock


@dataclass
class ModuleSummary:
    """The whole-program-relevant facts of one source file."""

    module_path: str
    display_path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Summarization (one AST pass per file)


def _ctor_chain(value: ast.AST) -> Optional[List[str]]:
    """The class chain when ``value`` constructs something, else None.

    Unwraps the ``x if cond else ClassName()`` default-argument idiom by
    preferring whichever branch is a constructor call.
    """
    if isinstance(value, ast.IfExp):
        return _ctor_chain(value.body) or _ctor_chain(value.orelse)
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        # Constructor spellings start with an uppercase class name
        # somewhere; a lowercase call (factory function) still resolves
        # later if it is a class, so keep any plain chain.
        return chain
    return None


def _iter_top_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(class_name, function_def)`` for each *top-level* scope.

    Unlike :func:`iter_function_scopes` this does not yield nested
    functions separately: the summarizer flattens a nested def into its
    enclosing function, which is the conservative reading for call
    edges (defining a callback is treated as potentially calling it).
    """

    def visit(body: Sequence[ast.stmt], cls: str) -> Iterator[Tuple[str, ast.AST]]:
        for stmt in body:
            if isinstance(stmt, _DEFS):
                yield cls, stmt
            elif isinstance(stmt, ast.ClassDef):
                yield from visit(stmt.body, stmt.name)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.AsyncWith,
                                   ast.For, ast.While)):
                for name in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(stmt, name, []) or [], cls)
                for handler in getattr(stmt, "handlers", []):
                    yield from visit(handler.body, cls)

    yield from visit(tree.body, "")


def _collect_imports(tree: ast.Module, mod_name: str,
                     is_package: bool) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = mod_name.split(".")
                pkg = parts if is_package else parts[:-1]
                anchor = pkg[: max(len(pkg) - (node.level - 1), 0)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = target
    return imports


def _collect_classes(tree: ast.Module) -> Dict[str, ClassSummary]:
    classes: Dict[str, ClassSummary] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        summary = ClassSummary(name=node.name)
        for base in node.bases:
            chain = attr_chain(base)
            if chain:
                summary.bases.append(".".join(chain))
        for stmt in node.body:
            if isinstance(stmt, _DEFS):
                summary.methods.append(stmt.name)
        # self.<attr> = <ctor> anywhere in the class body types the
        # attribute; lock constructors feed the REP006 lock universe.
        for sub in ast.walk(node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(sub, ast.Assign):
                targets, value = list(sub.targets), sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            if value is None:
                continue
            for target in targets:
                chain = attr_chain(target)
                if not (chain and len(chain) == 2 and chain[0] == "self"):
                    continue
                attr = chain[1]
                ctor = _ctor_chain(value)
                if not ctor:
                    continue
                if ctor[-1] in _LOCK_CTORS and (
                        len(ctor) == 1 or ctor[-2] == "threading"):
                    summary.lock_attrs.setdefault(attr, ctor[-1])
                else:
                    summary.attr_types.setdefault(attr, ".".join(ctor))
        classes[node.name] = summary
    return classes


def _classify_call(func: ast.AST, var_types: Dict[str, str]) -> Optional[CallRef]:
    chain = attr_chain(func)
    if chain:
        if len(chain) == 1:
            return CallRef("name", tuple(chain))
        if chain[0] == "self":
            return CallRef("self", tuple(chain[1:]))
        if chain[0] in var_types:
            return CallRef("var", tuple(chain), var_class=var_types[chain[0]])
        return CallRef("dotted", tuple(chain))
    if isinstance(func, ast.Attribute):
        # Callee hangs off a subscript / call result — only the method
        # name survives for the candidate over-approximation.
        return CallRef("unknown", (func.attr,))
    return None


def _classify_ref(arg: ast.AST) -> Optional[CallRef]:
    """A bare callable reference in argument position, if plausible."""
    chain = attr_chain(arg)
    if not chain:
        return None
    if chain[0] == "self" and len(chain) >= 2:
        return CallRef("self", tuple(chain[1:]), is_ref=True)
    if len(chain) >= 2:
        return CallRef("dotted", tuple(chain), is_ref=True)
    return CallRef("name", tuple(chain), is_ref=True)


class _LockWalker:
    """Recursive walk of one function tracking held ``with self.<lock>``.

    Descends into nested defs and lambdas: a callback defined while a
    lock is held is conservatively treated as running under it (the
    coordinator's shard thunks are exactly this shape).
    """

    def __init__(self, fn_summary: FunctionSummary, lock_attrs: Set[str],
                 var_types: Dict[str, str]):
        self.fn = fn_summary
        self.lock_attrs = lock_attrs
        self.var_types = var_types

    def walk(self, node: ast.AST, held: List[LockAcquire]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[LockAcquire] = []
            for item in node.items:
                self.walk(item.context_expr, held)
                chain = attr_chain(item.context_expr)
                if (chain and len(chain) == 2 and chain[0] == "self"
                        and chain[1] in self.lock_attrs):
                    acq = LockAcquire(
                        attr=chain[1],
                        site=Site(node.lineno, node.col_offset),
                    )
                    self.fn.acquires.append(acq)
                    for outer in held:
                        self.fn.held_acquires.append((outer, acq))
                    acquired.append(acq)
            inner = held + acquired
            for child in node.body:
                self.walk(child, inner)
            return
        if isinstance(node, ast.Call) and held:
            ref = _classify_call(node.func, self.var_types)
            if ref is not None:
                for outer in held:
                    self.fn.held_calls.append((outer, ref))
        for child in ast.iter_child_nodes(node):
            self.walk(child, held)


#: In-place mutators — ``self.<attr>.<m>(...)`` writes the structure.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})

#: Constructors whose ``target=`` keyword names concurrently-run code.
_SPAWN_CTORS = frozenset({"Thread", "Process"})


class _AccessWalker:
    """Recursive walk of one function recording ``self.<attr>`` accesses.

    Tracks the lexically held ``with self.<lock>:`` set and whether the
    access sits inside an except/finally body.  Runs for *every*
    function — a lockless class reachable from a spawn target still
    has shared attributes — and, for methods of lock-owning
    classes, additionally records every call site with its exact held
    set (``call_locksets``) for the interprocedural entry-lockset
    propagation.  Nested defs and lambdas inherit the held set, the
    same conservative reading :class:`_LockWalker` uses for callbacks.
    """

    def __init__(self, fn_summary: FunctionSummary, lock_attrs: Set[str],
                 var_types: Dict[str, str]):
        self.fn = fn_summary
        self.lock_attrs = lock_attrs
        self.var_types = var_types
        self.record_calls = bool(lock_attrs)

    def walk(self, node: ast.AST, held: Tuple[str, ...],
             in_handler: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                self._scan(item.context_expr, held, in_handler)
                if item.optional_vars is not None:
                    self._scan(item.optional_vars, held, in_handler)
                chain = attr_chain(item.context_expr)
                if (chain and len(chain) == 2 and chain[0] == "self"
                        and chain[1] in self.lock_attrs
                        and chain[1] not in held):
                    acquired.append(chain[1])
            inner = held + tuple(acquired)
            for child in node.body:
                self.walk(child, inner, in_handler)
            return
        if isinstance(node, ast.Try):
            for child in node.body:
                self.walk(child, held, in_handler)
            for child in node.orelse:
                self.walk(child, held, in_handler)
            for handler in node.handlers:
                for child in handler.body:
                    self.walk(child, held, True)
            for child in node.finalbody:
                self.walk(child, held, True)
            return
        if isinstance(node, (ast.If, ast.While)):
            self._scan(node.test, held, in_handler)
            for child in node.body + node.orelse:
                self.walk(child, held, in_handler)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan(node.target, held, in_handler)
            self._scan(node.iter, held, in_handler)
            for child in node.body + node.orelse:
                self.walk(child, held, in_handler)
            return
        if isinstance(node, _DEFS):
            for child in node.body:
                self.walk(child, held, in_handler)
            return
        if isinstance(node, ast.ClassDef):
            return
        self._scan(node, held, in_handler)

    # ------------------------------------------------------------------
    def _scan(self, root: ast.AST, held: Tuple[str, ...],
              in_handler: bool) -> None:
        """Record every access/call in one statement-or-expression tree."""
        write_ids: Set[int] = set()
        if isinstance(root, ast.Assign):
            for target in root.targets:
                self._collect_write_bases(target, write_ids)
        elif isinstance(root, (ast.AugAssign, ast.AnnAssign)):
            self._collect_write_bases(root.target, write_ids)
        elif isinstance(root, ast.Delete):
            for target in root.targets:
                self._collect_write_bases(target, write_ids)
        consumed: Set[int] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._scan_call(node, held, consumed)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and id(node) not in consumed):
                consumed.add(id(node))
                write = (id(node) in write_ids
                         or isinstance(node.ctx, (ast.Store, ast.Del)))
                self._record(node.attr, "write" if write else "read",
                             node, held, in_handler)

    def _scan_call(self, node: ast.Call, held: Tuple[str, ...],
                   consumed: Set[int]) -> None:
        chain = attr_chain(node.func)
        if (chain and len(chain) == 3 and chain[0] == "self"
                and isinstance(node.func, ast.Attribute)):
            receiver = node.func.value      # the `self.<attr>` node
            if id(receiver) not in consumed:
                consumed.add(id(receiver))
                kind = ("write" if node.func.attr in _MUTATOR_METHODS
                        else "read")
                self._record(chain[1], kind, node, held, False)
        if self.record_calls:
            ref = _classify_call(node.func, self.var_types)
            if ref is not None:
                self.fn.call_locksets.append((ref, held))
            for arg in _call_args(node):
                arg_ref = _classify_ref(arg)
                if arg_ref is not None:
                    self.fn.call_locksets.append((arg_ref, held))
        if chain and chain[-1] in _SPAWN_CTORS:
            for kw in node.keywords:
                if kw.arg == "target":
                    target_ref = _classify_ref(kw.value)
                    if target_ref is not None:
                        self.fn.spawn_targets.append(target_ref)

    def _record(self, attr: str, kind: str, node: ast.AST,
                held: Tuple[str, ...], in_handler: bool) -> None:
        self.fn.accesses.append(AttrAccess(
            attr=attr,
            kind=kind,
            site=Site(getattr(node, "lineno", 1),
                      getattr(node, "col_offset", 0)),
            held=held,
            in_handler=in_handler,
        ))

    @staticmethod
    def _collect_write_bases(target: ast.AST, out: Set[int]) -> None:
        """Mark the innermost ``self.<attr>`` a store target mutates.

        ``self.a = v`` marks ``self.a``; ``self.a[k] = v`` and
        ``self.a.b = v`` also mark ``self.a`` — the assignment mutates
        the structure the attribute points at, which is what the guard
        rules care about.
        """
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                _AccessWalker._collect_write_bases(elt, out)
            return
        node = target
        while True:
            if isinstance(node, (ast.Subscript, ast.Starred)):
                node = node.value
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    out.add(id(node))
                    return
                node = node.value
            else:
                return


# ---------------------------------------------------------------------------
# Resource lifecycle facts (REP009's per-function evidence)

_ACQUIRE_CTX_BASES = frozenset({"multiprocessing", "mp", "ctx", "context"})
_MP_HANDLES = frozenset({"Pipe", "Queue", "SimpleQueue", "JoinableQueue"})
_TEMP_CTORS = frozenset({
    "NamedTemporaryFile", "TemporaryFile", "SpooledTemporaryFile",
    "TemporaryDirectory",
})
_RELEASE_METHODS = frozenset({
    "close", "release", "terminate", "unlink", "cleanup", "shutdown",
    "join_thread",
})
_STORE_METHODS = frozenset({
    "append", "add", "insert", "setdefault", "update", "extend", "register",
})


def acquire_kind(call: ast.AST) -> Optional[str]:
    """The resource class a call acquires, or None.

    Recognizes ``open``/``*.open``, ``mmap.mmap``, the multiprocessing
    handles (``Pipe``/``Queue``/… off a context), ``SharedMemory`` and
    the tempfile constructors.  ``queue.Queue`` (thread queues hold no
    file descriptors) is deliberately not a resource.
    """
    if not isinstance(call, ast.Call):
        return None
    chain = attr_chain(call.func)
    if not chain:
        return None
    last = chain[-1]
    if last == "open":
        return "open"
    if last == "mmap" and len(chain) >= 2 and chain[-2] == "mmap":
        return "mmap"
    if last in _MP_HANDLES:
        if chain[0] in _ACQUIRE_CTX_BASES or (
                len(chain) >= 2 and chain[-2] in _ACQUIRE_CTX_BASES):
            return "pipe" if last == "Pipe" else "queue"
        return None
    if last == "SharedMemory":
        return "shared_memory"
    if last in _TEMP_CTORS:
        return "tempfile"
    return None


def _holds_name(expr: Optional[ast.AST], var: str) -> bool:
    """Is ``var`` spelled *directly* in ``expr`` (not behind a call)?

    ``return f`` and ``return f, name`` transfer the handle out;
    ``return f.read()`` does not."""
    if expr is None:
        return False
    if isinstance(expr, ast.Name):
        return expr.id == var
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_holds_name(elt, var) for elt in expr.elts)
    if isinstance(expr, ast.Starred):
        return _holds_name(expr.value, var)
    return False


def _call_args(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


def _stmt_resource_effect(
    stmt: ast.AST, var: str, var_types: Dict[str, str],
) -> Tuple[bool, List[CallRef]]:
    """``(ends_lifetime, handoffs)`` of one statement for ``var``.

    A statement ends the tracked lifetime when it releases the handle,
    stores it somewhere that outlives the function, returns/yields it,
    aliases it, or ``del``s it.  Hand-offs — calls taking the handle as
    an argument — are returned separately: whether they transfer
    ownership depends on whether the callee is first-party, which only
    the whole-program pass knows.
    """
    handoffs: List[CallRef] = []
    if isinstance(stmt, ast.Return) and _holds_name(stmt.value, var):
        return True, handoffs
    if isinstance(stmt, ast.Delete):
        if any(isinstance(t, ast.Name) and t.id == var for t in stmt.targets):
            return True, handoffs
    if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)):
        if _holds_name(stmt.value.value, var):
            return True, handoffs
    if isinstance(stmt, ast.Assign) and _holds_name(stmt.value, var):
        return True, handoffs  # alias or store; either transfers the duty
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        if any(_holds_name(item.context_expr, var) for item in stmt.items):
            return True, handoffs  # `with handle:` releases on exit
    # CFG nodes are statement-granular: a compound statement's node is
    # its *header*, the body statements have nodes of their own — so
    # only the header expressions are scanned here.
    if isinstance(stmt, (ast.If, ast.While)):
        scan: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        scan = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        scan = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, (ast.Try, ast.ExceptHandler, *_DEFS, ast.ClassDef)):
        scan = []
    else:
        scan = [stmt]
    for root in scan:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain and chain[0] == var and chain[-1] in _RELEASE_METHODS:
                return True, handoffs
            args_hold = any(_holds_name(arg, var) for arg in _call_args(node))
            if not args_hold:
                continue
            if chain and chain[0] == "os" and chain[-1] == "close":
                return True, handoffs
            if chain and chain[-1] in _STORE_METHODS:
                return True, handoffs  # stored in a container
            ref = _classify_call(node.func, var_types)
            if ref is not None:
                handoffs.append(ref)
    return False, handoffs


def _collect_resources(fn: ast.AST,
                       var_types: Dict[str, str]) -> List[ResourceFact]:
    """Resource facts of one function (CFG path check per tracked var)."""
    assert isinstance(fn, _DEFS)
    facts: List[ResourceFact] = []
    tracked: List[Tuple[ResourceFact, ast.stmt]] = []

    def scope(stmts: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in stmts:
            if isinstance(stmt, (*_DEFS, ast.ClassDef)):
                continue
            yield stmt
            for name in ("body", "orelse", "finalbody"):
                yield from scope(getattr(stmt, name, []) or [])
            for handler in getattr(stmt, "handlers", []):
                yield from scope(handler.body)

    def site_of(call: ast.AST) -> Site:
        return Site(getattr(call, "lineno", 1), getattr(call, "col_offset", 0))

    for stmt in scope(fn.body):
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                kind = acquire_kind(item.context_expr)
                if kind is not None:
                    facts.append(ResourceFact(
                        var="", kind=kind, site=site_of(item.context_expr),
                        managed=True))
            continue
        if not isinstance(stmt, ast.Assign):
            continue
        kind = acquire_kind(stmt.value)
        if kind is None or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        elements = (list(target.elts) if isinstance(target, ast.Tuple)
                    else [target])
        for element in elements:
            if isinstance(element, ast.Name):
                fact = ResourceFact(var=element.id, kind=kind,
                                    site=site_of(stmt.value))
                facts.append(fact)
                tracked.append((fact, stmt))
            elif isinstance(element, (ast.Attribute, ast.Subscript)):
                facts.append(ResourceFact(
                    var="", kind=kind, site=site_of(stmt.value),
                    escapes=True))

    if not tracked:
        return facts

    cfg = build_cfg(fn)

    def leak_path_exists(start_nid: int, blockers: Set[int]) -> bool:
        # Normal edges plus explicit-raise exception edges; a call's
        # exc edge is not a leak path (see ResourceFact docstring).
        seen: Set[int] = set()
        work = [start_nid]
        while work:
            nid = work.pop()
            if nid in seen:
                continue
            seen.add(nid)
            if nid in (cfg.exit_nid, cfg.raise_nid):
                return True
            if nid != start_nid and nid in blockers:
                continue
            node = cfg.node(nid)
            is_raise = isinstance(node.stmt, ast.Raise)
            for dst, edge_kind in node.succ:
                if edge_kind != EXC or is_raise or node.kind in (
                        "handlers", "handler", "final"):
                    work.append(dst)
        return False

    for fact, acq_stmt in tracked:
        start = cfg.node_of(acq_stmt)
        if start is None:  # pragma: no cover - every stmt gets a node
            continue
        blockers: Set[int] = set()
        handoffs: List[CallRef] = []
        for node in cfg.nodes:
            if node.stmt is None or node.nid == start:
                continue
            ends, calls = _stmt_resource_effect(node.stmt, fact.var,
                                                var_types)
            if ends:
                blockers.add(node.nid)
            handoffs.extend(calls)
        fact.released = not leak_path_exists(start, blockers)
        fact.handoffs = handoffs
    return facts


def summarize_module(module_path: str, display_path: str, source: str,
                     tree: Optional[ast.Module] = None) -> ModuleSummary:
    """Build the whole-program summary of one file."""
    if tree is None:
        tree = ast.parse(source)
    mod_name = module_name(module_path)
    is_package = module_path.endswith("__init__.py")
    summary = ModuleSummary(
        module_path=module_path,
        display_path=display_path,
        imports=_collect_imports(tree, mod_name, is_package),
        classes=_collect_classes(tree),
    )

    for cls_name, fn in _iter_top_scopes(tree):
        assert isinstance(fn, _DEFS)
        qualname = f"{cls_name}.{fn.name}" if cls_name else fn.name
        fsum = FunctionSummary(
            qualname=qualname,
            cls=cls_name,
            name=fn.name,
            site=Site(fn.lineno, fn.col_offset),
            is_public=not fn.name.startswith("_"),
            charges_ops=False,
            locked_convention=bool(cls_name) and fn.name.endswith("_locked"),
        )

        # Pass 1: local variable types from `x = ClassName(...)`.
        var_types: Dict[str, str] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    ctor = _ctor_chain(node.value)
                    if ctor:
                        var_types.setdefault(target.id, ".".join(ctor))

        # Pass 1b: resource acquisitions with CFG lifecycle verdicts.
        fsum.resources = _collect_resources(fn, var_types)

        # Pass 2: calls, references, charges, sweep sites.
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                if is_ops_charge(node):
                    fsum.charges_ops = True
                ref = _classify_call(node.func, var_types)
                if ref is not None:
                    fsum.calls.append(ref)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    arg_ref = _classify_ref(arg)
                    if arg_ref is not None:
                        fsum.calls.append(arg_ref)
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in SWEEP_METHODS):
                    chain = attr_chain(node.func)
                    if not chain or chain[0] != "self":
                        fsum.sweeps.append((
                            Site(node.lineno, node.col_offset),
                            f"{node.func.attr}() sweep",
                        ))
            elif isinstance(node, ast.Attribute) and node.attr in SWEEP_ATTRS:
                chain = attr_chain(node)
                if chain and chain[0] != "self":
                    fsum.sweeps.append((
                        Site(node.lineno, node.col_offset),
                        f"dense plane read '.{node.attr}'",
                    ))

        # Pass 3: lock structure.
        lock_attrs: Set[str] = set()
        if cls_name and cls_name in summary.classes:
            lock_attrs = set(summary.classes[cls_name].lock_attrs)
        if lock_attrs:
            walker = _LockWalker(fsum, lock_attrs, var_types)
            for stmt in fn.body:
                walker.walk(stmt, [])

        # Pass 4: attribute accesses, per-call locksets, spawn targets
        # (the lockset layer's evidence; runs for every function).
        access_walker = _AccessWalker(fsum, lock_attrs, var_types)
        for stmt in fn.body:
            access_walker.walk(stmt, (), False)

        summary.functions[qualname] = fsum
    return summary


# ---------------------------------------------------------------------------
# Linking: the program-wide call graph


FuncKey = Tuple[str, str]           # (module_path, qualname)
LockKey = Tuple[str, str, str]      # (module_path, class, attr)


@dataclass
class _Resolved:
    """Outcome of resolving one dotted reference."""

    kind: str                       # "func" | "class" | "module"
    module_path: str = ""
    name: str = ""                  # qualname / class name


class ProgramContext:
    """Linked view over every module summary of one lint run."""

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.modules = summaries
        self._mod_by_name: Dict[str, str] = {
            module_name(mp): mp for mp in summaries
        }
        # Bare-name index for the candidate over-approximation.
        self._by_bare_name: Dict[str, List[FuncKey]] = {}
        self.functions: Dict[FuncKey, FunctionSummary] = {}
        for mp, summary in summaries.items():
            for qualname, fsum in summary.functions.items():
                key = (mp, qualname)
                self.functions[key] = fsum
                self._by_bare_name.setdefault(fsum.name, []).append(key)
        self.resolved: Dict[FuncKey, Set[FuncKey]] = {}
        self.candidates: Dict[FuncKey, Set[FuncKey]] = {}
        self.callers: Dict[FuncKey, Set[FuncKey]] = {}
        self._link()

    # -- symbol resolution ------------------------------------------------

    def _resolve_dotted(self, dotted: str, depth: int = 0) -> Optional[_Resolved]:
        """Resolve a fully-qualified ``repro...`` reference."""
        if depth > 4:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            mod = ".".join(parts[:cut])
            mp = self._mod_by_name.get(mod)
            if mp is not None:
                return self._resolve_in_module(mp, parts[cut:], depth)
        return None

    def _resolve_in_module(self, mp: str, rest: List[str],
                           depth: int) -> Optional[_Resolved]:
        summary = self.modules[mp]
        if not rest:
            return _Resolved("module", mp)
        head = rest[0]
        if head in summary.classes:
            if len(rest) == 1:
                return _Resolved("class", mp, head)
            if len(rest) == 2:
                return self._resolve_method(mp, head, rest[1])
            return None
        if len(rest) == 1 and head in summary.functions:
            return _Resolved("func", mp, head)
        if head in summary.imports:
            # Re-export: `from repro.core.basic import X` in __init__.
            target = ".".join([summary.imports[head]] + rest[1:])
            return self._resolve_dotted(target, depth + 1)
        return None

    def _resolve_class_ref(self, ref: str, from_mp: str,
                           depth: int = 0) -> Optional[_Resolved]:
        """Resolve a class reference as spelled inside ``from_mp``."""
        if depth > 4:
            return None
        summary = self.modules.get(from_mp)
        if summary is None:
            return None
        parts = ref.split(".")
        head = parts[0]
        if head in summary.classes and len(parts) == 1:
            return _Resolved("class", from_mp, head)
        if head in summary.imports:
            resolved = self._resolve_dotted(
                ".".join([summary.imports[head]] + parts[1:]), depth + 1)
            if resolved is not None and resolved.kind == "class":
                return resolved
            return None
        if head == "repro":
            resolved = self._resolve_dotted(ref, depth + 1)
            if resolved is not None and resolved.kind == "class":
                return resolved
        return None

    def _resolve_method(self, mp: str, cls: str, meth: str,
                        depth: int = 0) -> Optional[_Resolved]:
        """Look ``meth`` up on ``cls`` and its first-party bases."""
        if depth > 6:
            return None
        summary = self.modules.get(mp)
        if summary is None or cls not in summary.classes:
            return None
        csum = summary.classes[cls]
        qualname = f"{cls}.{meth}"
        if qualname in summary.functions:
            return _Resolved("func", mp, qualname)
        for base in csum.bases:
            resolved_base = self._resolve_class_ref(base, mp)
            if resolved_base is not None:
                found = self._resolve_method(
                    resolved_base.module_path, resolved_base.name, meth,
                    depth + 1)
                if found is not None:
                    return found
        return None

    def _class_of(self, resolved: _Resolved) -> Optional[ClassSummary]:
        summary = self.modules.get(resolved.module_path)
        if summary is None:
            return None
        return summary.classes.get(resolved.name)

    def _walk_attr_types(self, start: _Resolved,
                         attrs: Sequence[str]) -> Optional[_Resolved]:
        """Follow ``.a.b`` through class-attribute type maps."""
        current = start
        for attr in attrs:
            csum = self._class_of(current)
            if csum is None or attr not in csum.attr_types:
                return None
            nxt = self._resolve_class_ref(
                csum.attr_types[attr], current.module_path)
            # The attr type is spelled in the module that assigns it,
            # which is where the class is defined.
            if nxt is None:
                return None
            current = nxt
        return current

    def _func_key(self, resolved: Optional[_Resolved]) -> Optional[FuncKey]:
        if resolved is None:
            return None
        if resolved.kind == "func":
            return (resolved.module_path, resolved.name)
        if resolved.kind == "class":
            init = self._resolve_method(resolved.module_path, resolved.name,
                                        "__init__")
            if init is not None:
                return (init.module_path, init.name)
        return None

    def resolve_call(self, caller_mp: str, caller_cls: str,
                     ref: CallRef) -> Tuple[Optional[FuncKey], Optional[str]]:
        """``(resolved_key, candidate_name)`` for one call reference.

        Exactly one of the pair is non-None for graph-relevant calls;
        both are None for calls known to be third-party/builtin.
        """
        summary = self.modules[caller_mp]
        if ref.kind == "name":
            name = ref.chain[0]
            if name in summary.functions:
                return (caller_mp, name), None
            if name in summary.classes:
                return self._func_key(_Resolved("class", caller_mp, name)), None
            if name in summary.imports:
                target = summary.imports[name]
                if not target.startswith("repro"):
                    return None, None
                return self._func_key(self._resolve_dotted(target)), None
            return None, None   # builtin / stdlib
        if ref.kind == "self":
            if not caller_cls:
                return None, None
            if len(ref.chain) == 1:
                found = self._resolve_method(caller_mp, caller_cls, ref.chain[0])
                if found is not None:
                    return (found.module_path, found.name), None
                return None, self._candidate_name(ref)
            target_cls = self._walk_attr_types(
                _Resolved("class", caller_mp, caller_cls), ref.chain[:-1])
            if target_cls is not None:
                found = self._resolve_method(
                    target_cls.module_path, target_cls.name, ref.chain[-1])
                if found is not None:
                    return (found.module_path, found.name), None
            return None, self._candidate_name(ref)
        if ref.kind == "var":
            base = self._resolve_class_ref(ref.var_class, caller_mp)
            if base is not None:
                target_cls = self._walk_attr_types(base, ref.chain[1:-1])
                if target_cls is not None:
                    found = self._resolve_method(
                        target_cls.module_path, target_cls.name, ref.chain[-1])
                    if found is not None:
                        return (found.module_path, found.name), None
            return None, self._candidate_name(ref)
        if ref.kind == "dotted":
            head = ref.chain[0]
            if head in summary.imports:
                target = summary.imports[head]
                if not target.startswith("repro"):
                    return None, None
                dotted = ".".join([target] + list(ref.chain[1:]))
                key = self._func_key(self._resolve_dotted(dotted))
                if key is not None:
                    return key, None
                return None, self._candidate_name(ref)
            if head == "repro":
                key = self._func_key(self._resolve_dotted(".".join(ref.chain)))
                return key, None if key else self._candidate_name(ref)
            # Parameter / unknown receiver.
            return None, self._candidate_name(ref)
        if ref.kind == "unknown":
            return None, self._candidate_name(ref)
        return None, None

    @staticmethod
    def _candidate_name(ref: CallRef) -> Optional[str]:
        name = ref.chain[-1]
        # Dunder candidates (`super().__init__()` …) would alias every
        # constructor in the program; references never get candidates.
        if ref.is_ref or name.startswith("__"):
            return None
        return name

    # -- linking ----------------------------------------------------------

    def _link(self) -> None:
        for key, fsum in self.functions.items():
            mp, qualname = key
            resolved: Set[FuncKey] = set()
            candidates: Set[FuncKey] = set()
            for ref in fsum.calls:
                target, cand = self.resolve_call(mp, fsum.cls, ref)
                if target is not None and target != key:
                    resolved.add(target)
                elif cand is not None:
                    for ckey in self._by_bare_name.get(cand, []):
                        if ckey != key:
                            candidates.add(ckey)
            candidates -= resolved
            self.resolved[key] = resolved
            self.candidates[key] = candidates
        for src, targets in self.resolved.items():
            for dst in targets:
                self.callers.setdefault(dst, set()).add(src)
        for src, targets in self.candidates.items():
            for dst in targets:
                self.callers.setdefault(dst, set()).add(src)

    # -- queries ----------------------------------------------------------

    def iter_functions(self) -> Iterator[Tuple[ModuleSummary, FunctionSummary, FuncKey]]:
        for mp in sorted(self.modules):
            summary = self.modules[mp]
            for qualname in sorted(summary.functions):
                yield summary, summary.functions[qualname], (mp, qualname)

    def callers_of(self, key: FuncKey) -> Set[FuncKey]:
        """Resolved + candidate callers (the over-approximating set)."""
        return self.callers.get(key, set())

    def resolved_callees(self, key: FuncKey) -> Set[FuncKey]:
        return self.resolved.get(key, set())

    def functions_named(self, name: str) -> List[FuncKey]:
        """First-party functions/methods with this bare name (the
        candidate-edge universe a dynamic call could land in)."""
        return list(self._by_bare_name.get(name, []))

    def resolve_held_call(self, caller_mp: str, caller_cls: str,
                          ref: CallRef) -> Optional[FuncKey]:
        """Resolved-only lookup for lock propagation (no candidates)."""
        target, _cand = self.resolve_call(caller_mp, caller_cls, ref)
        return target
