"""The bundled project-specific rules.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Each module holds one rule so the
invariant's documentation lives next to the code enforcing it:

* :mod:`~repro.analysis.rules.rep001_backend_purity` — REP001
* :mod:`~repro.analysis.rules.rep002_ops_discipline` — REP002
* :mod:`~repro.analysis.rules.rep003_thread_handles` — REP003
* :mod:`~repro.analysis.rules.rep004_determinism` — REP004
* :mod:`~repro.analysis.rules.rep005_schema_versioning` — REP005
* :mod:`~repro.analysis.rules.rep006_lock_order` — REP006
* :mod:`~repro.analysis.rules.rep007_persist_safety` — REP007
* :mod:`~repro.analysis.rules.rep008_exception_safety` — REP008
* :mod:`~repro.analysis.rules.rep009_resource_lifecycle` — REP009
* :mod:`~repro.analysis.rules.rep010_input_taint` — REP010
* :mod:`~repro.analysis.rules.rep011_inconsistent_guard` — REP011
* :mod:`~repro.analysis.rules.rep012_cross_process` — REP012

REP002, REP006, REP009, REP011 and REP012 are *whole-program* rules:
they run over the linked call graph
(:mod:`repro.analysis.callgraph`) instead of per file.  REP008 and
REP010 are per-file but *path-sensitive*: they run dataflow analyses
over the per-function CFG (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`).  REP011 and REP012 additionally run
the lockset/guard-inference layer (:mod:`repro.analysis.lockset`).
"""

from repro.analysis.rules import (  # noqa: F401
    rep001_backend_purity,
    rep002_ops_discipline,
    rep003_thread_handles,
    rep004_determinism,
    rep005_schema_versioning,
    rep006_lock_order,
    rep007_persist_safety,
    rep008_exception_safety,
    rep009_resource_lifecycle,
    rep010_input_taint,
    rep011_inconsistent_guard,
    rep012_cross_process,
)

__all__ = [
    "rep001_backend_purity",
    "rep002_ops_discipline",
    "rep003_thread_handles",
    "rep004_determinism",
    "rep005_schema_versioning",
    "rep006_lock_order",
    "rep007_persist_safety",
    "rep008_exception_safety",
    "rep009_resource_lifecycle",
    "rep010_input_taint",
    "rep011_inconsistent_guard",
    "rep012_cross_process",
]
