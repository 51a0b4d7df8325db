"""The reprolint engine: discover, parse, lint, link.

:func:`lint_package` walks every ``*.py`` under the installed
``repro`` package (or any directory standing in for it) and runs two
passes:

1. **per-file** — each registered per-file rule whose scope matches
   the file's *module path* (its posix path relative to the package
   root), plus the :mod:`~repro.analysis.callgraph` summarizer.  This
   pass is cached per file (:mod:`~repro.analysis.cache`) keyed on
   mtime and content hash, and fans out over a process pool sized
   from ``os.cpu_count()``.
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

import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.cache import AnalysisCache, analysis_digest
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
    #: Files the per-file pass analysed rather than read from the cache.
    files_analyzed: int = 0


def default_package_root() -> pathlib.Path:
    """The directory of the importable ``repro`` package."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


# ---------------------------------------------------------------------------
# Per-file pass (cacheable)


@dataclass
class FileRecord:
    """The cacheable per-file products of pass 1."""

    module_path: str
    display_path: str
    findings: List[Finding] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None
    error: Optional[str] = None

    def to_cache(self) -> Dict[str, Any]:
        return {
            "display_path": self.display_path,
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "summary": self.summary.to_dict() if self.summary else None,
            "error": self.error,
        }

    @classmethod
    def from_cache(cls, module_path: str, data: Dict[str, Any]) -> "FileRecord":
        display_path = str(data["display_path"])
        record = cls(module_path=module_path, display_path=display_path)
        record.findings = [
            Finding(
                rule=str(f["rule"]),
                severity=str(f["severity"]),
                path=display_path,
                line=int(f["line"]),
                col=int(f["col"]),
                message=str(f["message"]),
            )
            for f in data["findings"]
        ]
        if data.get("summary") is not None:
            record.summary = ModuleSummary.from_dict(data["summary"])
        record.error = data.get("error")
        return record


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


# ---------------------------------------------------------------------------
# Whole-program pass


def _finalize(records: Sequence[FileRecord],
              program_rules: Sequence[Rule]) -> LintResult:
    result = LintResult(files_checked=len(records))
    for record in records:
        result.findings.extend(record.findings)
        if record.error is not None:
            result.errors.append((record.display_path, record.error))

    if program_rules:
        summaries = {
            record.module_path: record.summary
            for record in records
            if record.summary is not None
        }
        if summaries:
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


def _iter_sources(root: pathlib.Path) -> Iterable[pathlib.Path]:
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        yield path


def _pool_analyze(
    args: Tuple[str, str, str, Tuple[str, ...]],
) -> Tuple[str, Dict[str, Any], str]:
    """Process-pool worker: analyze one file, return cache-shaped data.

    Takes and returns only picklable primitives; rules are
    reconstructed from their ids inside the worker (the registry
    repopulates on import).  The ``to_cache()`` dict round-trips
    through :meth:`FileRecord.from_cache` in the parent — the exact
    path every warm cache hit already takes, so parallel output is
    byte-identical to serial.
    """
    path_str, module_path, display, rule_ids = args
    per_file = [r for r in all_rules(list(rule_ids))
                if not r.whole_program]
    source = pathlib.Path(path_str).read_text(encoding="utf-8")
    record = _analyze_file(source, module_path, display, per_file)
    return module_path, record.to_cache(), source


def _collect_records(
    pkg_root: pathlib.Path,
    per_file: Sequence[Rule],
    cache: Optional[AnalysisCache],
    display_base: str,
    jobs: Optional[int],
) -> Tuple[List[FileRecord], int]:
    """The per-file pass: cache hits in-process, misses possibly pooled.

    Returns the records in discovery order and how many files were
    analysed rather than read from the cache.  With more than one job
    (default: ``os.cpu_count()``) the misses fan out over a process
    pool while the whole-program pass (and the cache itself) stay in
    the parent.  Results are reassembled in discovery order, so the
    findings and the saved cache are byte-identical to a serial run.
    """
    work: List[Tuple[pathlib.Path, str, str]] = []
    for path in _iter_sources(pkg_root):
        module_path = path.relative_to(pkg_root).as_posix()
        display = f"{display_base}/{module_path}" if display_base else module_path
        work.append((path, module_path, display))

    records: Dict[str, FileRecord] = {}
    misses: List[Tuple[pathlib.Path, str, str]] = []
    for path, module_path, display in work:
        if cache is not None:
            cached = cache.lookup(module_path, path)
            if cached is not None:
                try:
                    records[module_path] = FileRecord.from_cache(
                        module_path, cached)
                    continue
                except (KeyError, TypeError, ValueError):
                    pass  # corrupt entry: fall through and re-analyze
        misses.append((path, module_path, display))

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(misses) > 1:
        from concurrent.futures import ProcessPoolExecutor

        rule_ids = tuple(r.rule_id for r in per_file)
        pool_args = [(str(path), module_path, display, rule_ids)
                     for path, module_path, display in misses]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (path, _mp, _display), (module_path, data, source) in zip(
                    misses, pool.map(_pool_analyze, pool_args)):
                records[module_path] = FileRecord.from_cache(module_path, data)
                if cache is not None:
                    cache.store(module_path, path, source, data)
    else:
        for path, module_path, display in misses:
            source = path.read_text(encoding="utf-8")
            record = _analyze_file(source, module_path, display, per_file)
            records[module_path] = record
            if cache is not None:
                cache.store(module_path, path, source, record.to_cache())

    if cache is not None:
        cache.save()
    ordered = [records[module_path] for _path, module_path, _display in work]
    return ordered, len(misses)


def _make_cache(
    cache_dir: Optional[Union[str, pathlib.Path]],
    per_file: Sequence[Rule],
    program: Sequence[Rule],
) -> Optional[AnalysisCache]:
    if cache_dir is None:
        return None
    # The signature names the active rules and hashes the analysis
    # package's own sources: cached findings and summaries are only
    # valid for the exact code that produced them.
    signature = ",".join(
        [r.rule_id for r in list(per_file) + list(program)]
        + [f"analysis={analysis_digest()}"]
    )
    return AnalysisCache(pathlib.Path(cache_dir), signature)


def lint_package(
    root: Optional[Union[str, pathlib.Path]] = None,
    only: Sequence[str] = (),
    display_base: str = "src/repro",
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    jobs: Optional[int] = None,
) -> LintResult:
    """Lint every python file under ``root`` (default: the repro package).

    ``display_base`` prefixes reported paths so findings render as
    repo-relative (``src/repro/core/basic.py:12``) regardless of where
    the package is installed.  ``cache_dir`` enables the per-file
    analysis cache; the whole-program pass always re-runs.  ``jobs``
    sizes the per-file process pool (default: ``os.cpu_count()``,
    serial at 1); the output is byte-identical at any size.
    """
    pkg_root = pathlib.Path(root) if root is not None else default_package_root()
    per_file, program = _split_rules(only)
    cache = _make_cache(cache_dir, per_file, program)
    records, analyzed = _collect_records(pkg_root, per_file, cache,
                                         display_base, jobs)
    result = _finalize(records, program)
    result.files_analyzed = analyzed
    return result


def compute_guards(
    root: Optional[Union[str, pathlib.Path]] = None,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
) -> List[GuardRow]:
    """The inferred guarded-by table for the package under ``root``.

    Runs the same per-file pass as :func:`lint_package` (sharing its
    cache — the summaries carry all the evidence), links the program
    and returns the lockset layer's attribute → protecting-lock table.
    """
    pkg_root = pathlib.Path(root) if root is not None else default_package_root()
    per_file, program = _split_rules(())
    cache = _make_cache(cache_dir, per_file, program)
    records, _analyzed = _collect_records(pkg_root, per_file, cache,
                                          "src/repro", None)
    summaries = {
        record.module_path: record.summary
        for record in records
        if record.summary is not None
    }
    if not summaries:
        return []
    return LocksetAnalysis(ProgramContext(summaries)).guard_table()
