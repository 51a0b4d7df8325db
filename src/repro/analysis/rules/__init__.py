"""The bundled project-specific rules.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Each module holds one rule so the
invariant's documentation lives next to the code enforcing it:

* :mod:`~repro.analysis.rules.rep002_ops_discipline` — REP002
* :mod:`~repro.analysis.rules.rep004_determinism` — REP004
* :mod:`~repro.analysis.rules.rep005_schema_versioning` — REP005
* :mod:`~repro.analysis.rules.rep006_lock_order` — REP006
* :mod:`~repro.analysis.rules.rep007_persist_safety` — REP007
* :mod:`~repro.analysis.rules.rep008_exception_safety` — REP008
* :mod:`~repro.analysis.rules.rep009_resource_lifecycle` — REP009
* :mod:`~repro.analysis.rules.rep011_inconsistent_guard` — REP011

REP002, REP006, REP009 and REP011 are *whole-program* rules: they run
over the linked call graph (:mod:`repro.analysis.callgraph`) instead
of per file.  REP008 is per-file but *path-sensitive*: it runs
reachability closures over the per-function CFG
(:mod:`repro.analysis.cfg`).  REP011 additionally runs the
lockset/guard-inference layer (:mod:`repro.analysis.lockset`).
"""

from repro.analysis.rules import (  # noqa: F401
    rep002_ops_discipline,
    rep004_determinism,
    rep005_schema_versioning,
    rep006_lock_order,
    rep007_persist_safety,
    rep008_exception_safety,
    rep009_resource_lifecycle,
    rep011_inconsistent_guard,
)

__all__ = [
    "rep002_ops_discipline",
    "rep004_determinism",
    "rep005_schema_versioning",
    "rep006_lock_order",
    "rep007_persist_safety",
    "rep008_exception_safety",
    "rep009_resource_lifecycle",
    "rep011_inconsistent_guard",
]
