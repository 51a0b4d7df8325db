"""REP005 — schema versioning: persisted artifacts go through schema modules.

Invariant (PR 1 WAL/snapshots, PR 2 bench harness): every artifact the
repo persists and later reloads — ``BENCH_*.json`` results, service
snapshots, WAL records — carries a schema version and round-trips
through a dedicated, versioned writer
(:mod:`repro.bench.schema`, :mod:`repro.service.snapshot`,
:mod:`repro.ratings.io`).  A raw ``json.dump`` elsewhere produces a
document with no version stamp, which the perf-regression gate and
snapshot recovery cannot validate or migrate.

The rule flags, outside the allow-listed schema modules:

* any ``json.dump(...)`` call (file-handle serialization);
* any ``*.write_text(...)`` / ``*.write(...)`` call whose arguments
  contain a ``json.dumps(...)`` call (string serialization being
  persisted in the same expression);
* any ``*.write_text(name)`` / ``*.write(name)`` where ``name`` was
  bound from a ``json.dumps(...)`` expression earlier in the same
  function — the split header-then-persist pattern of the mmap image
  writer (PR 8).  The ``.write`` sink only counts in functions that
  also ``open(...)`` a file for writing, so handing a bound JSON body
  to a socket is not a persist.

``json.dumps`` used for HTTP response bodies or logging is fine —
neither pattern reaches a file there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register
from repro.analysis.rules._ast_util import (
    attr_chain,
    iter_function_scopes,
    walk_scope,
)

__all__ = ["SchemaVersioningRule"]

_WRITE_METHODS = frozenset({"write_text", "write"})


def _is_json_dumps(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return bool(chain) and chain[-1] == "dumps" and (
        len(chain) == 1 or chain[-2] == "json"
    )


def _contains_json_dumps(node: ast.AST) -> bool:
    return any(_is_json_dumps(sub) for sub in ast.walk(node))


def _opens_file_for_write(node: ast.AST) -> bool:
    """True for ``open(..., "w"/"wb"/"x")`` / ``path.open("w")`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    is_open = (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    )
    if not is_open:
        return False
    candidates = list(node.args[1:2] if isinstance(func, ast.Name)
                      else node.args[:1])
    candidates += [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(
        isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        and arg.value[:1] in ("w", "x")
        for arg in candidates
    )


def _json_bound_names(body) -> frozenset:
    """Names assigned from an expression containing ``json.dumps``."""
    bound = set()
    for node in walk_scope(body):
        if isinstance(node, ast.Assign) and _contains_json_dumps(node.value):
            bound.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and _contains_json_dumps(node.value)
              and isinstance(node.target, ast.Name)):
            bound.add(node.target.id)
    return frozenset(bound)


@register
class SchemaVersioningRule(Rule):
    rule_id = "REP005"
    title = "schema-versioning"
    severity = Severity.ERROR
    rationale = (
        "Persisted artifacts (BENCH results, snapshots, WAL) must "
        "carry a schema version and round-trip through the versioned "
        "writer so the CI perf gate and crash recovery can validate "
        "and migrate them; raw json.dump writes version-less documents."
    )
    exclude = (
        # The versioned writers themselves.
        "bench/schema.py",
        "service/snapshot.py",
        "ratings/io.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain and chain[-1] == "dump" and (
                    len(chain) == 1 or chain[-2] == "json"):
                yield ctx.finding(
                    self, node,
                    "raw json.dump() outside a schema module — persist "
                    "through the versioned writer (repro.bench.schema / "
                    "repro.service.snapshot) so the artifact carries a "
                    "schema version",
                )
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in _WRITE_METHODS
                  and any(_contains_json_dumps(arg) for arg in node.args)):
                yield ctx.finding(
                    self, node,
                    f"'.{node.func.attr}(json.dumps(...))' persists an "
                    f"unversioned JSON document — route it through the "
                    f"versioned schema writer",
                )
        for scope in self._scopes(ctx.tree):
            yield from self._bound_persists(ctx, scope)

    @staticmethod
    def _scopes(tree: ast.Module):
        # walk_scope only prunes defs found *below* its starting nodes,
        # so drop top-level defs from the module scope ourselves.
        yield [stmt for stmt in tree.body
               if not isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef))]
        for _cls, fn in iter_function_scopes(tree):
            yield fn.body

    def _bound_persists(self, ctx: FileContext,
                        body) -> Iterator[Finding]:
        """Flag persisting a name that was bound from ``json.dumps``."""
        bound = _json_bound_names(body)
        if not bound:
            return
        # ``.write`` is only a persist sink when this scope writes a
        # file; sockets and response streams stay out of scope.
        sinks = {"write_text"}
        if any(_opens_file_for_write(node) for node in walk_scope(body)):
            sinks.add("write")
        for node in walk_scope(body):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in sinks
                    and any(isinstance(arg, ast.Name) and arg.id in bound
                            for arg in node.args)):
                yield ctx.finding(
                    self, node,
                    f"'.{node.func.attr}(...)' persists a JSON document "
                    f"bound from json.dumps(...) with no schema version — "
                    f"route it through the versioned schema writer",
                )
