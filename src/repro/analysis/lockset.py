"""Whole-program lockset analysis and guarded-by inference.

An Eraser-style lockset analysis (Savage et al., recast statically
over reprolint's call graph and CFG machinery) in three steps:

1. **May-hold locksets.**  Intraprocedurally every ``self.<attr>``
   access carries the ``with self.<lock>:`` regions lexically holding
   it (:class:`~repro.analysis.callgraph.AttrAccess`).  Interprocedur-
   ally, entry locksets propagate along **resolved** call edges only —
   the same edge discipline REP006 uses, for the same reason: a
   speculative edge into a lock-holding caller would fabricate
   protection that does not exist.  The entry lockset of a function is
   the *intersection* over all resolved call sites of the caller's
   lockset at that site (the must-hold direction — claiming a guard
   needs every path to hold it); ``*_locked`` methods are pinned to
   all locks of their class per the documented caller-holds-the-lock
   convention.  A function with no resolved callers is a root and
   enters with the empty lockset.

2. **Thread-escape classification.**  An attribute is *shared* when
   its class can be reached by more than one thread of control —
   the class owns a lock (it advertises concurrent use), one of its
   methods is handed to a ``Thread``/``Process`` ``target=``, or its
   methods are reachable from such a target — **and** the attribute
   is written at least once outside ``__init__``.  Constructor-phase
   writes are thread-confined (the object has not escaped yet) and
   attributes only ever assigned in the ctor are configuration, not
   shared mutable state.

3. **Guarded-by inference.**  Per shared attribute, intersect the
   may-hold locksets of every post-ctor, non-handler access.  A
   non-empty intersection names the protecting lock(s) — the
   guarded-by table ``repro lint --guards`` prints; an empty one means
   no single lock consistently protects the attribute, which is
   REP011's finding.

The module also hosts the lock universe and may-acquire fixpoint that
REP006 (lock ordering) is built on, so both rule families share one
set of summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallRef,
    FuncKey,
    FunctionSummary,
    LockKey,
    ModuleSummary,
    ProgramContext,
    Site,
)

__all__ = [
    "Access",
    "GuardRow",
    "LocksetAnalysis",
    "Witness",
    "direct_acquires",
    "exempt_module",
    "lock_universe",
    "may_acquire",
]

#: A witnessed acquisition: where, in which file.
Witness = Tuple[str, Site]          # (display_path, site)

#: Module-path segments exempt from guard inference (the metrics
#: registry is documented as internally synchronized).
_EXEMPT_SEGMENTS = frozenset({"metrics"})


# ---------------------------------------------------------------------------
# The REP006 building blocks (shared by lock ordering and locksets)


def lock_universe(program: ProgramContext) -> Dict[LockKey, str]:
    """Every ``self.<attr> = threading.(R)Lock()`` in the program."""
    universe: Dict[LockKey, str] = {}
    for mp in sorted(program.modules):
        for cls_name, csum in program.modules[mp].classes.items():
            for attr, kind in csum.lock_attrs.items():
                universe[(mp, cls_name, attr)] = kind
    return universe


def direct_acquires(
    program: ProgramContext,
) -> Dict[FuncKey, List[Tuple[LockKey, Witness]]]:
    """Per-function direct acquisitions (with-blocks + ``*_locked``)."""
    direct: Dict[FuncKey, List[Tuple[LockKey, Witness]]] = {}
    for mod, fsum, key in program.iter_functions():
        entries: List[Tuple[LockKey, Witness]] = []
        if fsum.cls:
            csum = mod.classes.get(fsum.cls)
            if csum is not None:
                for acq in fsum.acquires:
                    if acq.attr in csum.lock_attrs:
                        entries.append((
                            (mod.module_path, fsum.cls, acq.attr),
                            (mod.display_path, acq.site),
                        ))
                if fsum.locked_convention:
                    for attr in sorted(csum.lock_attrs):
                        entries.append((
                            (mod.module_path, fsum.cls, attr),
                            (mod.display_path, fsum.site),
                        ))
        direct[key] = entries
    return direct


def may_acquire(
    program: ProgramContext,
    direct: Dict[FuncKey, List[Tuple[LockKey, Witness]]],
) -> Dict[FuncKey, Dict[LockKey, Witness]]:
    """Fixpoint of acquisitions over resolved call edges."""
    may: Dict[FuncKey, Dict[LockKey, Witness]] = {
        key: {lock: witness for lock, witness in entries}
        for key, entries in direct.items()
    }
    changed = True
    while changed:
        changed = False
        for key in may:
            target = may[key]
            for callee in program.resolved_callees(key):
                for lock, witness in may.get(callee, {}).items():
                    if lock not in target:
                        target[lock] = witness
                        changed = True
    return may


# ---------------------------------------------------------------------------
# Access records with their may-hold locksets


@dataclass(frozen=True)
class Access:
    """One attribute access annotated with its may-hold lockset."""

    key: FuncKey                    # owning function
    method: str                     # bare method name
    attr: str
    kind: str                       # "read" | "write"
    site: Site
    display_path: str
    lockset: FrozenSet[LockKey]
    in_handler: bool

    @property
    def in_ctor(self) -> bool:
        return self.method == "__init__"

    def where(self) -> str:
        return f"{self.display_path}:{self.site.line}"


@dataclass
class GuardRow:
    """One guarded-by table row: attribute → protecting lock(s) → sites."""

    display_path: str
    cls: str
    attr: str
    guards: Tuple[str, ...]         # rendered lock names; () = unguarded
    sites: int                      # post-ctor accesses considered
    first_site: str                 # "path:line" of the first access

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.display_path,
            "class": self.cls,
            "attr": self.attr,
            "guards": list(self.guards),
            "sites": self.sites,
            "first_site": self.first_site,
        }


def exempt_module(module_path: str) -> bool:
    """Is this module exempt from guard inference (metrics registry)?"""
    segments = module_path[:-3].split("/") if module_path.endswith(".py") \
        else module_path.split("/")
    return bool(_EXEMPT_SEGMENTS.intersection(segments))


class LocksetAnalysis:
    """The linked lockset view of one program (built once per lint)."""

    def __init__(self, program: ProgramContext):
        self.program = program
        self.universe = lock_universe(program)
        self.entry = self._compute_entry()
        #: (module_path, class) → attr → accesses, with locksets applied.
        self.by_class: Dict[Tuple[str, str], Dict[str, List[Access]]] = {}
        self._collect_accesses()
        self.spawn_reachable = self._spawn_reachable()

    # -- entry locksets (interprocedural must-hold) ---------------------

    def _call_sites(
        self, mod: ModuleSummary, fsum: FunctionSummary,
    ) -> Iterable[Tuple[CallRef, Tuple[str, ...]]]:
        csum = mod.classes.get(fsum.cls) if fsum.cls else None
        if csum is not None and csum.lock_attrs:
            return fsum.call_locksets
        return [(ref, ()) for ref in fsum.calls]

    def _held_keys(self, mod: ModuleSummary, fsum: FunctionSummary,
                   held: Tuple[str, ...]) -> FrozenSet[LockKey]:
        csum = mod.classes.get(fsum.cls) if fsum.cls else None
        if csum is None:
            return frozenset()
        return frozenset(
            (mod.module_path, fsum.cls, attr) for attr in held
            if attr in csum.lock_attrs
        )

    def _compute_entry(self) -> Dict[FuncKey, FrozenSet[LockKey]]:
        program = self.program
        top = frozenset(self.universe)
        incoming: Dict[FuncKey, List[Tuple[FuncKey, FrozenSet[LockKey]]]] = {}
        fixed: Dict[FuncKey, FrozenSet[LockKey]] = {}
        for mod, fsum, key in program.iter_functions():
            if fsum.locked_convention and fsum.cls:
                csum = mod.classes.get(fsum.cls)
                if csum is not None and csum.lock_attrs:
                    fixed[key] = frozenset(
                        (mod.module_path, fsum.cls, attr)
                        for attr in csum.lock_attrs
                    )
            for ref, held in self._call_sites(mod, fsum):
                callee = program.resolve_held_call(mod.module_path,
                                                   fsum.cls, ref)
                if callee is None or callee == key:
                    continue
                incoming.setdefault(callee, []).append(
                    (key, self._held_keys(mod, fsum, held)))
        entry: Dict[FuncKey, FrozenSet[LockKey]] = {}
        for key in program.functions:
            if key in fixed:
                entry[key] = fixed[key]
            elif incoming.get(key):
                entry[key] = top        # narrowed by the fixpoint below
            else:
                entry[key] = frozenset()
        changed = True
        while changed:
            changed = False
            for key, callers in incoming.items():
                if key in fixed:
                    continue
                new: Optional[FrozenSet[LockKey]] = None
                for caller, held_keys in callers:
                    at_site = entry.get(caller, frozenset()) | held_keys
                    new = at_site if new is None else (new & at_site)
                if new is not None and new != entry[key]:
                    entry[key] = new
                    changed = True
        return entry

    # -- access collection ----------------------------------------------

    def _collect_accesses(self) -> None:
        for mod, fsum, key in self.program.iter_functions():
            if not fsum.cls or fsum.cls not in mod.classes:
                continue
            base = self.entry.get(key, frozenset())
            class_key = (mod.module_path, fsum.cls)
            per_attr = self.by_class.setdefault(class_key, {})
            for access in fsum.accesses:
                lockset = base | self._held_keys(mod, fsum, access.held)
                per_attr.setdefault(access.attr, []).append(Access(
                    key=key,
                    method=fsum.name,
                    attr=access.attr,
                    kind=access.kind,
                    site=access.site,
                    display_path=mod.display_path,
                    lockset=lockset,
                    in_handler=access.in_handler,
                ))

    # -- thread escape ---------------------------------------------------

    def _spawn_reachable(self) -> Set[FuncKey]:
        """Functions reachable, over resolved call edges, from a callable
        handed to a ``Thread``/``Process`` ``target=``."""
        work: List[FuncKey] = []
        for mod, fsum, _key in self.program.iter_functions():
            for ref in fsum.spawn_targets:
                target = self.program.resolve_held_call(
                    mod.module_path, fsum.cls, ref)
                if target is not None:
                    work.append(target)
        seen: Set[FuncKey] = set()
        while work:
            key = work.pop()
            if key in seen:
                continue
            seen.add(key)
            work.extend(self.program.resolved_callees(key))
        return seen

    def shared_class(self, module_path: str, cls: str) -> bool:
        """Can instances of this class be reached by >1 thread of control?"""
        summary = self.program.modules.get(module_path)
        if summary is None or cls not in summary.classes:
            return False
        csum = summary.classes[cls]
        if csum.lock_attrs:
            return True
        return any((module_path, f"{cls}.{meth}") in self.spawn_reachable
                   for meth in csum.methods)

    def shared_attrs(self, module_path: str, cls: str) -> List[str]:
        """Attributes written at least once outside the ctor (sorted),
        excluding the class's lock attributes themselves."""
        summary = self.program.modules.get(module_path)
        if summary is None or cls not in summary.classes:
            return []
        lock_attrs = set(summary.classes[cls].lock_attrs)
        per_attr = self.by_class.get((module_path, cls), {})
        shared: List[str] = []
        for attr in sorted(per_attr):
            if attr in lock_attrs:
                continue
            if any(a.kind == "write" and not a.in_ctor
                   for a in per_attr[attr]):
                shared.append(attr)
        return shared

    # -- guard inference --------------------------------------------------

    def guarded_accesses(self, module_path: str, cls: str,
                         attr: str) -> List[Access]:
        """The post-ctor, non-handler accesses guard inference considers,
        sorted by site."""
        per_attr = self.by_class.get((module_path, cls), {})
        accesses = [a for a in per_attr.get(attr, [])
                    if not a.in_ctor and not a.in_handler]
        return sorted(accesses, key=lambda a: (a.display_path, a.site.line,
                                               a.site.col))

    def guard_of(self, accesses: Iterable[Access]) -> FrozenSet[LockKey]:
        """The lockset intersection across access sites (the guard)."""
        guard: Optional[FrozenSet[LockKey]] = None
        for access in accesses:
            guard = (access.lockset if guard is None
                     else guard & access.lockset)
        return guard if guard is not None else frozenset()

    def render_lock(self, key: LockKey, module_path: str, cls: str) -> str:
        """``_lock`` for a same-class guard, ``Owner._lock`` otherwise."""
        if key[0] == module_path and key[1] == cls:
            return key[2]
        return f"{key[1]}.{key[2]}"

    def guard_table(self) -> List[GuardRow]:
        """One row per shared attribute of every shared class, sorted."""
        rows: List[GuardRow] = []
        for (module_path, cls) in sorted(self.by_class):
            if exempt_module(module_path):
                continue
            if not self.shared_class(module_path, cls):
                continue
            summary = self.program.modules[module_path]
            for attr in self.shared_attrs(module_path, cls):
                accesses = self.guarded_accesses(module_path, cls, attr)
                if not accesses:
                    continue
                guard = self.guard_of(accesses)
                names = tuple(sorted(
                    self.render_lock(key, module_path, cls) for key in guard))
                rows.append(GuardRow(
                    display_path=summary.display_path,
                    cls=cls,
                    attr=attr,
                    guards=names,
                    sites=len(accesses),
                    first_site=accesses[0].where(),
                ))
        return rows
