"""REP002 — ops discipline: matrix sweeps charge the OpCounter.

Invariant (PAPER.md §4, docs/ALGORITHMS.md): detection code charges
the shared :class:`~repro.util.counters.OpCounter` the *algorithm's
nominal* costs — one ``freq_check`` per element inspection, one
``formula_eval`` per Formula (2) screen — regardless of how the
implementation vectorizes the work.  Proposition 4.1/4.2's measured
growth, Figure 13, and the 0%-drift ops gate in CI all depend on every
sweep being accounted.

The check is **interprocedural**: a sweep — a call to ``entries()`` /
``row_entries()`` / ``all_entries()`` or a dense plane-view read — in
``core/`` is compliant when every call path from a public entry point
down to the sweep passes through (or ends at) a function that charges
``ops.add(...)``.  Concretely, walking the reverse call graph from the
sweeping function through *uncharged* functions only must never reach
an uncharged public function or an uncharged root (a function with no
known callers); charged callers terminate their path as covered.  The
helper-extraction idiom — ``detect()`` pre-charges the nominal cost,
a helper it calls performs the sweep — therefore passes,
while deleting the caller's charge flags the sweep again.

Dynamic calls resolve to conservative *candidate* edges (every
first-party function sharing the bare name), which can only add
charged callers — over-approximation never invents a finding here, it
can only suppress one along a path that may not exist; the paired ops
gate in CI (`repro bench compare --metric ops`) backstops that bias
dynamically.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from repro.analysis.callgraph import FuncKey, ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["OpsDisciplineRule"]


@register
class OpsDisciplineRule(Rule):
    rule_id = "REP002"
    title = "ops-discipline"
    severity = Severity.WARNING
    rationale = (
        "Formula (2)'s nominal OpCounter charging keeps Prop 4.1/4.2 "
        "cost accounting byte-identical across vectorization "
        "strategies; an uncharged sweep silently breaks "
        "the Figure 13 trajectory and the CI ops gate. The check is "
        "interprocedural: a charge anywhere on every call path from "
        "the enclosing public entry point covers the sweep."
    )
    scope = ("core/",)
    whole_program = True

    def _uncharged_entry(self, program: ProgramContext,
                         start: FuncKey) -> Optional[FuncKey]:
        """An uncharged entry point reaching ``start`` charge-free.

        Reverse-BFS from the sweeping function through uncharged
        functions; a charged caller covers its paths, an uncharged
        public function (or callerless root) is the violation witness.
        """
        seen: Set[FuncKey] = {start}
        queue = [start]
        while queue:
            key = queue.pop()
            fsum = program.functions[key]
            callers = program.callers_of(key)
            if fsum.is_public or not callers:
                return key
            for caller in callers:
                if caller in seen:
                    continue
                seen.add(caller)
                if not program.functions[caller].charges_ops:
                    queue.append(caller)
        return None

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for mod, fsum, key in program.iter_functions():
            if not self.applies_to(mod.module_path):
                continue
            if not fsum.sweeps or fsum.charges_ops:
                continue
            entry = self._uncharged_entry(program, key)
            if entry is None:
                continue
            entry_name = program.functions[entry].qualname
            if entry == key:
                why = (f"'{fsum.qualname}' is a public entry point and "
                       f"never charges")
            else:
                why = (f"reachable from uncharged entry point "
                       f"'{entry_name}' with no charge on the path")
            for site, what in sorted(fsum.sweeps,
                                     key=lambda s: (s[0].line, s[0].col)):
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=mod.display_path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"{what} in '{fsum.qualname}' with no "
                        f"ops.add(...) charge on some call path — {why}; "
                        f"charge the nominal cost here or in every caller"
                    ),
                )
