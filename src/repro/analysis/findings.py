"""Finding model for the reprolint static-analysis pass.

A :class:`Finding` is one rule violation anchored to a ``file:line``
location.  ``repro lint`` is a single gate: any finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Severity", "Finding"]


class Severity:
    """Finding severity levels, ordered ``ERROR > WARNING``."""

    ERROR = "error"
    WARNING = "warning"

    _ORDER = {ERROR: 0, WARNING: 1}

    @classmethod
    def rank(cls, severity: str) -> int:
        """Sort key: lower is more severe."""
        return cls._ORDER.get(severity, len(cls._ORDER))


@dataclass
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    severity: str
    path: str              # repo-relative posix path
    line: int              # 1-based
    col: int               # 0-based (ast convention)
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        """The one-line text-reporter form."""
        return f"{self.location()}: {self.rule} {self.severity}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
