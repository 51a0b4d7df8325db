"""reprolint — AST-based invariant linter for the detection stack.

The package enforces, statically, the project invariants that the
test-suite can only check dynamically (and therefore only on the paths
tests happen to exercise):

* **REP002 ops-discipline** — matrix sweeps in ``core/`` charge the
  shared :class:`~repro.util.counters.OpCounter` on *every* call path
  (interprocedural: a sweep in a private helper is fine when each
  public entry point that reaches it charges);
* **REP004 determinism** — no ambient randomness or wall-clock reads
  in the seeded simulation/detection layers;
* **REP005 schema-versioning** — persisted JSON artifacts go through
  the versioned schema writers;
* **REP006 lock-order** — lock acquisitions nest in one global order
  across the whole call graph (cycles are potential deadlocks);
* **REP007 persist-safety** — WAL / snapshot / image writes are
  append-only, atomic (write-then-``os.replace``) or try/finally
  guarded;
* **REP008 exception-safe-mutation** — a statement in ``service/``
  that can raise between shared-state writes, outside any ``try``,
  violates the zero-partial-state (all-or-nothing 429) contract;
* **REP009 resource-lifecycle** — mmap/``open``/``Pipe``/``Queue``/
  ``SharedMemory``/tmp-file acquisitions are released on every CFG
  path (``with``, ``close()`` in ``finally``, or a first-party
  hand-off);
* **REP011 inconsistent-guard** — every shared attribute of a
  lock-owning service class is accessed under one consistent lock.

REP002, REP006, REP009 and REP011 are *whole-program* rules: the
engine summarises every file
(:func:`~repro.analysis.callgraph.summarize_module`), links the
summaries into a :class:`~repro.analysis.callgraph.ProgramContext`
call graph, and runs them once over the linked program.  REP008 is
path-sensitive: it runs reachability closures over per-function
control-flow graphs (:mod:`repro.analysis.cfg`).  One lint is one
serial, in-process pass over the tree, with nothing cached between
runs.

Entry points: ``repro lint`` (and ``tools/reprolint``), a single gate
that fails on any finding.  See docs/STATIC_ANALYSIS.md for the rule
catalogue.
"""

from repro.analysis.callgraph import (
    ModuleSummary,
    ProgramContext,
    summarize_module,
)
from repro.analysis.engine import LintResult, lint_package, lint_source
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, register, rule_index

__all__ = [
    "Finding",
    "LintResult",
    "ModuleSummary",
    "ProgramContext",
    "Rule",
    "Severity",
    "all_rules",
    "lint_package",
    "lint_source",
    "register",
    "rule_index",
    "summarize_module",
]
