"""REP007 — persistence exception-safety: no torn writes on crash.

Invariant (docs/SERVICE.md, PR 1): the service's crash-recovery
guarantee — WAL replay over the latest snapshot reconstructs exact
state — holds only if a crash mid-write can never leave a
half-written artifact where recovery will read it.  Three disciplines
satisfy it, and every persistence write site must use one:

* **append-mode** writes (``open(path, "a")``): the WAL's discipline —
  a torn tail record is detected and dropped by replay;
* **atomic rename**: write a temp file, then ``os.replace()`` /
  ``os.rename()`` it over the destination (the snapshot store's
  discipline) — readers see the old or the new file, never a mix;
* **try/finally** around the write so cleanup runs on the error path.

The rule flags any write-mode ``open(...)`` / ``path.open(...)`` or
``path.write_text(...)`` in scope that is not covered by one of the
three (the atomic-rename check is same-function: a write in a function
that also calls ``os.replace``/``os.rename`` is taken as the temp-file
pattern).  Scope is the persistence surface, ``service/``, which
includes the state-image publisher in ``service/snapshot.py``
(``write_image`` must keep its tmp + ``os.replace`` discipline so a
crash mid-publish can never tear the image a restarted worker maps).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register
from repro.analysis.rules._ast_util import attr_chain, iter_function_scopes, walk_scope

__all__ = ["PersistSafetyRule"]

_WRITE_MODES = ("w", "x")


def _literal_mode(call: ast.Call) -> Optional[str]:
    """The file-mode string of an open call, when statically known."""
    for arg in list(call.args[1:2]) + [
        kw.value for kw in call.keywords if kw.arg == "mode"
    ]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _write_site(node: ast.AST) -> Optional[Tuple[ast.Call, str]]:
    """``(call, description)`` when ``node`` opens a file for writing."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _literal_mode(node)
        if mode is not None and mode[0] in _WRITE_MODES:
            return node, f"open(..., {mode!r})"
        return None
    if isinstance(func, ast.Attribute):
        if func.attr == "open":
            # path.open("w"): first positional argument is the mode.
            mode = None
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                mode = node.args[0].value
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    mode = kw.value.value
            if mode is not None and mode[0] in _WRITE_MODES:
                return node, f".open({mode!r})"
            return None
        if func.attr == "write_text":
            return node, ".write_text(...)"
    return None


def _is_atomic_rename(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return bool(chain) and len(chain) >= 2 and chain[-2] == "os" \
        and chain[-1] in ("replace", "rename")


def _protected_sites(body: List[ast.stmt]) -> Iterator[Tuple[ast.Call, str, bool]]:
    """Yield ``(call, description, in_try_finally)`` for write sites.

    Walks one function scope tracking whether each site sits inside a
    ``try`` that has a ``finally`` block.
    """

    def visit(node: ast.AST, protected: bool) -> Iterator[Tuple[ast.Call, str, bool]]:
        site = _write_site(node)
        if site is not None:
            yield site[0], site[1], protected
        if isinstance(node, ast.Try):
            inner = protected or bool(node.finalbody)
            for child in node.body + node.orelse:
                yield from visit(child, inner)
            for handler in node.handlers:
                for child in handler.body:
                    yield from visit(child, inner)
            for child in node.finalbody:
                yield from visit(child, protected)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return  # nested scopes are their own functions
        for child in ast.iter_child_nodes(node):
            yield from visit(child, protected)

    for stmt in body:
        yield from visit(stmt, False)


@register
class PersistSafetyRule(Rule):
    rule_id = "REP007"
    title = "persist-safety"
    severity = Severity.ERROR
    rationale = (
        "Crash recovery replays the WAL over the latest snapshot; a "
        "torn write where recovery reads would corrupt reconstructed "
        "state. Persistence writes must append, write-then-rename, or "
        "guard cleanup with try/finally so a crash mid-write cannot "
        "leave a half-written artifact behind."
    )
    scope = ("service/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for _cls, fn in iter_function_scopes(ctx.tree):
            atomic = any(_is_atomic_rename(node)
                         for node in walk_scope(fn.body))
            if atomic:
                continue
            for call, what, in_finally in _protected_sites(list(fn.body)):
                if in_finally:
                    continue
                yield ctx.finding(
                    self, call,
                    f"non-atomic persistence write {what} in '{fn.name}' — "
                    f"append, write a temp file and os.replace() it, or "
                    f"wrap the write in try/finally",
                )
