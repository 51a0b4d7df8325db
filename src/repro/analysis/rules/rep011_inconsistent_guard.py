"""REP011 — inconsistent guard: shared state needs one consistent lock.

Invariant (docs/SERVICE.md): every mutable attribute of a lock-owning
service class is protected by a single lock held at *every* access —
readers included.  A "mostly guarded" attribute is a data race: the
one lock-free read can observe a half-applied update, and no test
reproduces it reliably under scheduling jitter.

The check is Eraser's lockset algorithm recast statically over the
whole-program lockset analysis (:mod:`repro.analysis.lockset`): per
shared attribute, intersect the may-hold locksets of every access
site; an empty intersection means no lock consistently protects it.
The established conventions shape what counts as an access site:

* ``__init__`` is construction — the object has not escaped its
  creating thread yet, so ctor-phase accesses are exempt;
* ``*_locked`` methods are entered with every class lock held (the
  documented caller-holds-the-lock convention), so their accesses are
  guarded by definition;
* except/finally bodies are rollback paths (REP008's domain) and are
  exempt here;
* attributes never written outside the ctor are configuration, not
  shared mutable state — read-only attrs need no guard;
* modules with a ``metrics`` path segment are exempt: the counter
  registry is documented as internally synchronized.

Findings: one **error** per unguarded shared attribute, anchored at
the first access whose lockset breaks the intersection, naming the
locks the other sites hold.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.lockset import Access, LocksetAnalysis, exempt_module
from repro.analysis.registry import Rule, register

__all__ = ["InconsistentGuardRule"]


@register
class InconsistentGuardRule(Rule):
    rule_id = "REP011"
    title = "inconsistent-guard"
    severity = Severity.ERROR
    rationale = (
        "A shared attribute of a lock-owning service class must be "
        "read and written under one consistent lock: the attribute's "
        "guard is the intersection of the may-hold locksets across "
        "all access sites, and an empty intersection is a data race. "
        "Ctor-phase accesses, *_locked callees and handler rollbacks "
        "are exempt per the documented conventions."
    )
    scope = ("service/",)
    whole_program = True

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        analysis = LocksetAnalysis(program)
        for (module_path, cls) in sorted(analysis.by_class):
            if not self._in_scope(module_path):
                continue
            summary = program.modules[module_path]
            if not summary.classes[cls].lock_attrs:
                continue        # no lock to be inconsistent about
            for attr in analysis.shared_attrs(module_path, cls):
                accesses = analysis.guarded_accesses(module_path, cls, attr)
                if not accesses:
                    continue
                guard = analysis.guard_of(accesses)
                if guard:
                    continue
                anchor = self._anchor(accesses)
                held_elsewhere = sorted({
                    analysis.render_lock(key, module_path, cls)
                    for access in accesses for key in access.lockset
                })
                if held_elsewhere:
                    detail = (
                        f"other sites hold {{{', '.join(held_elsewhere)}}} "
                        f"but no single lock covers all "
                        f"{len(accesses)} access site(s)"
                    )
                else:
                    detail = (
                        f"none of the {len(accesses)} access site(s) "
                        f"holds a lock"
                    )
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=anchor.display_path,
                    line=anchor.site.line,
                    col=anchor.site.col,
                    message=(
                        f"shared attribute '{attr}' of {cls} has no "
                        f"consistent guard: {anchor.kind} at "
                        f"{anchor.where()} is lock-free ({detail})"
                    ),
                )

    def _in_scope(self, module_path: str) -> bool:
        if exempt_module(module_path):
            return False
        return any(module_path.startswith(prefix) for prefix in self.scope)

    @staticmethod
    def _anchor(accesses: List[Access]) -> Access:
        """The first access holding nothing — the site breaking the guard."""
        for access in accesses:
            if not access.lockset:
                return access
        return accesses[0]
