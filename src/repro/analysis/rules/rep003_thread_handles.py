"""REP003 — thread handles in the sharded service are kept.

Invariant (docs/SERVICE.md): every thread the service starts has a
stop path.  ``threading.Thread(...).start()`` without binding the
thread object discards the only handle anyone could ``join``, so the
thread outlives shutdown ordering.

Shared-state writes outside the owning lock are REP011's domain: its
lockset analysis reports an unguarded write along with every other
inconsistently guarded access.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register
from repro.analysis.rules._ast_util import attr_chain

__all__ = ["ThreadHandleRule"]


def _is_thread_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return bool(chain) and chain[-1] == "Thread"


@register
class ThreadHandleRule(Rule):
    rule_id = "REP003"
    title = "thread-handle"
    severity = Severity.WARNING
    rationale = (
        "A service thread nobody holds a handle to cannot be joined: "
        "it has no stop path and outlives shutdown ordering. Bind the "
        "threading.Thread object before starting it."
    )
    scope = ("service/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            call: Optional[ast.Call] = None
            if isinstance(node, ast.Expr) and _is_thread_ctor(node.value):
                call = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "start"
                  and _is_thread_ctor(node.func.value)):
                call = node.func.value
            if call is not None:
                yield ctx.finding(
                    self, call,
                    "threading.Thread created without keeping a handle — "
                    "no join/stop path; bind it so shutdown can join",
                )
