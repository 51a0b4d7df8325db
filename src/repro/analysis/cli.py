"""The ``repro lint`` command: one serial pass, one gate.

``repro lint`` runs every selected rule over the whole tree, and any
finding fails the run.  ``repro.cli`` declares the options and imports
this module only when the command runs, so other commands never load
the analysis package.

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
import sys
from typing import List, Sequence

from repro.analysis.engine import compute_guards, lint_package
from repro.analysis.registry import all_rules
from repro.analysis.reporter import render_json, render_text
from repro.errors import ReproError

__all__ = ["run_lint"]


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


def _print_guards(args: argparse.Namespace) -> int:
    """Render the inferred guarded-by table (text or json)."""
    rows = compute_guards(root=args.root)
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
        if args.guards:
            return _print_guards(args)
        result = lint_package(root=args.root, only=only)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 1 if result.findings or result.errors else 0
