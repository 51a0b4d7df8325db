"""The reprolint engine: discover, parse, lint, link.

:func:`lint_package` walks every ``*.py`` under the installed
``repro`` package (or any directory standing in for it) and runs two
passes, serially and in-process:

1. **per-file** — each registered per-file rule whose scope matches
   the file's *module path* (its posix path relative to the package
   root), plus the :mod:`~repro.analysis.callgraph` summarizer.
2. **whole-program** — the summaries are linked into a
   :class:`~repro.analysis.callgraph.ProgramContext` and every rule
   with ``whole_program = True`` runs once over the call graph
   (interprocedural ops-discipline, lock-order cycles).

:func:`lint_source` is the single-file entry point the test-suite
uses: it lints an in-memory source string under a *virtual* module
path — the whole-program pass then sees a one-module program, which is
exactly what the cross-file fixtures exercise.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.callgraph import ModuleSummary, ProgramContext, summarize_module
from repro.analysis.findings import Finding
from repro.analysis.lockset import GuardRow, LocksetAnalysis
from repro.analysis.registry import FileContext, Rule, all_rules

__all__ = [
    "LintResult",
    "compute_guards",
    "default_package_root",
    "lint_package",
    "lint_source",
]

#: Directories never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__"})


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: ``(display_path, message)`` for files that failed to parse.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0


def default_package_root() -> pathlib.Path:
    """The directory of the importable ``repro`` package."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


# ---------------------------------------------------------------------------
# Per-file pass


@dataclass
class FileRecord:
    """The per-file products of pass 1."""

    module_path: str
    display_path: str
    findings: List[Finding] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None
    error: Optional[str] = None


def _analyze_file(
    source: str,
    module_path: str,
    display_path: str,
    per_file_rules: Sequence[Rule],
) -> FileRecord:
    record = FileRecord(module_path=module_path, display_path=display_path)
    try:
        ctx = FileContext(module_path, source, display_path=display_path)
    except SyntaxError as exc:
        record.error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return record
    for rule in per_file_rules:
        record.findings.extend(rule.run(ctx))
    record.summary = summarize_module(module_path, display_path, source,
                                      tree=ctx.tree)
    return record


def _iter_sources(root: pathlib.Path) -> Iterable[pathlib.Path]:
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        yield path


def _collect_records(pkg_root: pathlib.Path, per_file: Sequence[Rule],
                     display_base: str) -> List[FileRecord]:
    """The per-file pass over every source, in discovery order."""
    records: List[FileRecord] = []
    for path in _iter_sources(pkg_root):
        module_path = path.relative_to(pkg_root).as_posix()
        display = f"{display_base}/{module_path}" if display_base else module_path
        source = path.read_text(encoding="utf-8")
        records.append(_analyze_file(source, module_path, display, per_file))
    return records


def _summaries(records: Sequence[FileRecord]) -> Dict[str, ModuleSummary]:
    return {
        record.module_path: record.summary
        for record in records
        if record.summary is not None
    }


# ---------------------------------------------------------------------------
# Whole-program pass


def _finalize(records: Sequence[FileRecord],
              program_rules: Sequence[Rule]) -> LintResult:
    result = LintResult(files_checked=len(records))
    for record in records:
        result.findings.extend(record.findings)
        if record.error is not None:
            result.errors.append((record.display_path, record.error))

    summaries = _summaries(records)
    if program_rules and summaries:
        program = ProgramContext(summaries)
        for rule in program_rules:
            result.findings.extend(rule.check_program(program))

    result.findings.sort(key=_sort_key)
    return result


def _split_rules(only: Sequence[str]) -> Tuple[List[Rule], List[Rule]]:
    rules = all_rules(only)
    per_file = [r for r in rules if not r.whole_program]
    program = [r for r in rules if r.whole_program]
    return per_file, program


def lint_source(
    source: str,
    module_path: str,
    only: Sequence[str] = (),
    display_path: str = "",
) -> LintResult:
    """Lint one in-memory source under a virtual module path.

    The whole-program rules see a one-module program, so cross-file
    fixtures exercise the call-graph logic on self-contained sources.
    """
    per_file, program = _split_rules(only)
    record = _analyze_file(source, module_path,
                           display_path or module_path, per_file)
    return _finalize([record], program)


def lint_package(
    root: Optional[Union[str, pathlib.Path]] = None,
    only: Sequence[str] = (),
    display_base: str = "src/repro",
) -> LintResult:
    """Lint every python file under ``root`` (default: the repro package).

    ``display_base`` prefixes reported paths so findings render as
    repo-relative (``src/repro/core/basic.py:12``) regardless of where
    the package is installed.
    """
    pkg_root = pathlib.Path(root) if root is not None else default_package_root()
    per_file, program = _split_rules(only)
    return _finalize(_collect_records(pkg_root, per_file, display_base),
                     program)


def compute_guards(
    root: Optional[Union[str, pathlib.Path]] = None,
) -> List[GuardRow]:
    """The inferred guarded-by table for the package under ``root``.

    Summarizes every file as :func:`lint_package` does, without running
    any rule (the summaries carry all the evidence), links the program
    and returns the lockset layer's attribute → protecting-lock table.
    """
    pkg_root = pathlib.Path(root) if root is not None else default_package_root()
    summaries = _summaries(_collect_records(pkg_root, (), "src/repro"))
    if not summaries:
        return []
    return LocksetAnalysis(ProgramContext(summaries)).guard_table()
