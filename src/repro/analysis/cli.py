"""The ``repro lint`` command-line front end.

``repro lint`` is a single gate: every selected rule runs over the
whole tree, and any finding fails the run.

Exit codes
----------
0
    Clean: no findings and no parse errors.
1
    At least one finding, or a file that failed to parse.
2
    Usage errors (unknown rule id …).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import (
    compute_guards,
    default_package_root,
    lint_package,
)
from repro.analysis.registry import all_rules
from repro.analysis.reporter import render_json, render_text
from repro.errors import ReproError

__all__ = ["add_lint_arguments", "run_lint", "main"]


def _default_cache_dir() -> pathlib.Path:
    """``.reprolint-cache/`` at the repo root of a checkout, else cwd.

    A source checkout is recognised by the ``pyproject.toml`` two
    levels above the package (``src/repro`` → repo root), so the
    command works from any directory of a checkout; installed copies
    fall back to the current directory.
    """
    repo_root = default_package_root().parents[1]
    if not (repo_root / "pyproject.toml").exists():
        repo_root = pathlib.Path.cwd()
    return repo_root / ".reprolint-cache"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--rules", default="",
                        help="comma-separated rule ids to run "
                             "(default: every registered rule)")
    parser.add_argument("--root", default=None,
                        help="package directory to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--cache-dir", default=None,
                        help="analysis cache directory (default: "
                             ".reprolint-cache/ at the repo root)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-file analysis cache")
    parser.add_argument("--guards", action="store_true",
                        help="print the inferred guarded-by table "
                             "(attribute -> protecting lock -> access "
                             "sites) instead of findings")
    parser.add_argument("--explain", action="store_true",
                        help="describe each rule's invariant and exit")


def _explain(only: Sequence[str]) -> int:
    for rule in all_rules(only):
        scope = ", ".join(rule.scope) if rule.scope else "src/repro (all)"
        print(f"{rule.rule_id} {rule.title} [{rule.severity}]")
        print(f"  scope: {scope}")
        if rule.exclude:
            print(f"  exempt: {', '.join(rule.exclude)}")
        print(f"  {rule.rationale}")
        print()
    return 0


def _print_guards(args: argparse.Namespace,
                  cache_dir: Optional[pathlib.Path]) -> int:
    """Render the inferred guarded-by table (text or json)."""
    rows = compute_guards(root=args.root, cache_dir=cache_dir)
    if args.format == "json":
        print(json.dumps(
            {"tool": "reprolint", "guards": [row.to_dict() for row in rows]},
            indent=2, sort_keys=True))
        return 0
    if not rows:
        print("guarded-by table: no shared attributes found")
        return 0
    print(f"guarded-by table ({len(rows)} shared attribute(s))")
    current = None
    for row in rows:
        head = (row.display_path, row.cls)
        if head != current:
            current = head
            print(f"\n{row.display_path} {row.cls}")
        guard = ", ".join(row.guards) if row.guards else "(unguarded!)"
        print(f"  {row.attr:<28} {guard:<20} "
              f"{row.sites} site(s), first {row.first_site}")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    only: List[str] = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        if args.explain:
            return _explain(only)
        cache_dir: Optional[pathlib.Path] = None
        if not args.no_cache:
            cache_dir = (pathlib.Path(args.cache_dir) if args.cache_dir
                         else _default_cache_dir())
        if args.guards:
            return _print_guards(args, cache_dir)
        result = lint_package(root=args.root, only=only, cache_dir=cache_dir)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 1 if result.findings or result.errors else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based invariant linter for the repro package",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
