"""REP009 — resource lifecycle: every acquisition has a release path.

Invariant (docs/SERVICE.md, PR 8): the service's native handles —
mmap state images, worker ``Pipe`` ends, ``SharedMemory`` segments,
spill files — must be released on *every* path, because a leaked fd
in a forkserver-restarted worker or an unlinked-but-mapped segment
survives the process that forgot it.

The per-file summarizer (callgraph.py) already did the hard work on
the CFG: each :class:`~repro.analysis.callgraph.ResourceFact` records
whether the acquisition was ``with``-managed, escaped into longer-
lived state, reached a release on every normal path (``close()`` in
``finally`` counts — the leak search follows explicit-``raise``
edges but not call exception edges), or was handed to callees.

This whole-program pass settles the one question the per-file view
cannot: a hand-off to a *first-party* callee — resolved, or a
candidate matching some first-party function — is an ownership
transfer (``self._conn = conn`` two frames down is that callee's
story, and a false leak here would teach people to work around the
rule).  A hand-off that resolves to nothing first-party is not a
release: ``pickle.dumps(fh)`` does not close anything.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import CallRef, FuncKey, ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["ResourceLifecycleRule"]

_KIND_HINTS = {
    "open": "file handle",
    "mmap": "mmap mapping",
    "pipe": "Pipe connection",
    "queue": "multiprocessing queue",
    "shared_memory": "SharedMemory segment",
    "tempfile": "temporary file",
}


@register
class ResourceLifecycleRule(Rule):
    rule_id = "REP009"
    title = "resource-lifecycle"
    severity = Severity.ERROR
    rationale = (
        "mmap images, Pipe ends, SharedMemory segments and spill "
        "files must be released on every path — a handle leaked on "
        "an early return or explicit raise outlives the worker that "
        "opened it. Use a with-statement, close in finally, or hand "
        "the handle off to an owner that does."
    )
    scope = ()
    whole_program = True

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for mod, fsum, key in program.iter_functions():
            for fact in fsum.resources:
                if fact.managed or fact.escapes or fact.released:
                    continue
                if any(self._is_transfer(program, key, fsum.cls, ref)
                       for ref in fact.handoffs):
                    continue
                hint = _KIND_HINTS.get(fact.kind, fact.kind)
                handle = f"'{fact.var}'" if fact.var else "the handle"
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=mod.display_path,
                    line=fact.site.line,
                    col=fact.site.col,
                    message=(
                        f"{hint} {handle} acquired in '{fsum.qualname}' "
                        f"is not released on every path (no with, no "
                        f"close on some normal/raise path, no first-"
                        f"party hand-off) — wrap it in a with-statement "
                        f"or close it in finally"
                    ),
                )

    @staticmethod
    def _is_transfer(program: ProgramContext, key: FuncKey,
                     caller_cls: str, ref: CallRef) -> bool:
        """Does this hand-off land in first-party code?"""
        target, cand = program.resolve_call(key[0], caller_cls, ref)
        if target is not None:
            return True
        return bool(cand) and bool(program.functions_named(cand))
