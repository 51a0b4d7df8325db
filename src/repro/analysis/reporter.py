"""Text and JSON reporters for reprolint runs."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import LintResult
from repro.analysis.findings import Severity

__all__ = ["render_text", "render_json"]

REPORT_VERSION = 2


def _summary_line(result: LintResult) -> str:
    parts = [f"{result.files_checked} files checked"]
    by_sev: Dict[str, int] = {}
    for finding in result.findings:
        by_sev[finding.severity] = by_sev.get(finding.severity, 0) + 1
    if result.findings:
        detail = ", ".join(
            f"{by_sev[sev]} {sev}{'s' if by_sev[sev] != 1 else ''}"
            for sev in sorted(by_sev, key=Severity.rank)
        )
        parts.append(f"{len(result.findings)} finding(s) ({detail})")
    else:
        parts.append("no findings")
    if result.errors:
        parts.append(f"{len(result.errors)} file error(s)")
    return "; ".join(parts)


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``file:line: RULE severity: msg`` per line."""
    lines: List[str] = [f"{path}: error: {message}"
                        for path, message in result.errors]
    lines.extend(finding.render() for finding in result.findings)
    lines.append(_summary_line(result))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable shape, versioned)."""
    doc = {
        "tool": "reprolint",
        "report_version": REPORT_VERSION,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "errors": [
            {"file": path, "message": message}
            for path, message in result.errors
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
