"""REP012 — cross-process sharing: child and parent state is disjoint.

Invariant (docs/OPERATIONS.md): state touched both inside a
``Process`` target's code (the child) and in the front end (the
parent) must flow through a ``Queue`` or ``Pipe`` — never a plain
attribute.  A plain attribute *looks* shared but is copied at spawn:
the child mutates its copy, the parent reads stale state, and nothing
crashes — the worst kind of bug the process-per-shard service is one
refactor away from.

Construction, on the whole-program lockset analysis
(:mod:`repro.analysis.lockset`):

* **child-side code** is the transitive closure, over resolved call
  edges, of every callable handed to a ``Process(target=...)``;
* only classes whose *instances* actually cross the spawn are
  eligible: a bound method of the class handed to ``Process`` copies
  the whole object into the child.  Classes merely used on both sides
  — each side constructing its own instance, like the WAL — never
  share an object, and flagging them would be object-insensitive
  noise;
* an attribute of an eligible class is flagged when it has a
  post-ctor access from a child-side method *and* from a parent-side
  method, unless the attribute is a sanctioned channel: its inferred
  type is a Queue/Pipe/Connection (or another process handle), or
  every cross-side access goes through an endpoint method (``put``/
  ``get``/``send``/``recv``/``close``/…);
* ctor-phase accesses are exempt — construction happens before the
  fork, so ctor writes are the one legitimate "both sides" state.

Findings: one **error** per plainly-shared attribute, witnessed by
one child-side and one parent-side access site.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.lockset import (
    MEDIATION_METHODS,
    Access,
    LocksetAnalysis,
    mediated_type,
)
from repro.analysis.registry import Rule, register

__all__ = ["CrossProcessRule"]


@register
class CrossProcessRule(Rule):
    rule_id = "REP012"
    title = "cross-process-sharing"
    severity = Severity.ERROR
    rationale = (
        "State accessed both in Process-target (child) code and in "
        "the parent must be queue/Pipe-mediated: a plain attribute is "
        "silently copied at spawn, so child writes never reach the "
        "parent. Child code is the resolved-call closure of every "
        "Process target; only classes whose bound methods are Process "
        "targets (the instance is copied into the child) are eligible; "
        "queue/Pipe-typed attributes and endpoint-method accesses are "
        "the sanctioned channel."
    )
    scope = ("service/",)
    whole_program = True

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        analysis = LocksetAnalysis(program)
        if not analysis.child_reachable:
            return
        for (module_path, cls) in sorted(analysis.by_class):
            if not any(module_path.startswith(p) for p in self.scope):
                continue
            if (module_path, cls) not in analysis.process_escaping:
                continue
            csum = program.modules[module_path].classes[cls]
            per_attr = analysis.by_class[(module_path, cls)]
            for attr in sorted(per_attr):
                if attr in csum.lock_attrs or mediated_type(csum, attr):
                    continue
                sides = self._split_sides(analysis, per_attr[attr])
                if sides is None:
                    continue
                child, parent = sides
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=child.display_path,
                    line=child.site.line,
                    col=child.site.col,
                    message=(
                        f"attribute '{attr}' of {cls} is touched in "
                        f"child-process code ({child.method} at "
                        f"{child.where()}) and in the parent "
                        f"({parent.method} at {parent.where()}) without "
                        f"queue/Pipe mediation — cross-process state "
                        f"must flow through a Queue or Pipe"
                    ),
                )

    def _split_sides(
        self, analysis: LocksetAnalysis, accesses: List[Access],
    ) -> Optional[Tuple[Access, Access]]:
        """``(child access, parent access)`` witnessing plain sharing.

        Endpoint-method accesses are the mediated channel and witness
        nothing; ctor accesses predate the fork.
        """
        child: Optional[Access] = None
        parent: Optional[Access] = None
        for access in sorted(accesses,
                             key=lambda a: (a.display_path, a.site.line,
                                            a.site.col)):
            if access.in_ctor or access.via_method in MEDIATION_METHODS:
                continue
            if access.key in analysis.child_reachable:
                child = child or access
            else:
                parent = parent or access
        if child is not None and parent is not None:
            return child, parent
        return None
