"""REP001 — backend purity: rating storage is reached via the facade.

Invariant (PR 3, docs/ARCHITECTURE.md): every consumer of rating
counts goes through the :class:`~repro.ratings.matrix.RatingMatrix` /
:class:`~repro.ratings.backends.MatrixBackend` *backend-agnostic*
surface — ``row_entries()`` / ``entries()`` / ``received_*()`` /
``pair_*()`` — so the dense and sparse engines stay observationally
identical and the detectors never silently densify an ``(n, n)``
plane.  Two violation classes:

* **error** — touching a backend's private storage
  (``._counts`` / ``._positives`` / ``._negatives`` / ``._rows`` /
  ``._node_total`` / ``._node_pos`` / ``._node_neg``) from outside the
  backend module;
* **warning** — reading the dense-only plane views (``.counts`` /
  ``.positives`` / ``.negatives`` / ``.effective_counts``), which
  raise on the sparse backend; code must use the agnostic accessors.

``self.<attr>`` accesses are exempt — an object's own attributes are
its business (``OpCounter._counts`` is not a matrix plane).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import FileContext, Rule, register
from repro.analysis.rules._ast_util import base_of_chain

__all__ = ["BackendPurityRule"]

#: Private storage attributes of the two shipped backends.
PRIVATE_PLANE_ATTRS: FrozenSet[str] = frozenset({
    "_counts", "_positives", "_negatives",
    "_rows", "_node_total", "_node_pos", "_node_neg",
})

#: Dense-only facade views (raise on the sparse backend).
DENSE_VIEW_ATTRS: FrozenSet[str] = frozenset({
    "counts", "positives", "negatives", "effective_counts",
})


@register
class BackendPurityRule(Rule):
    rule_id = "REP001"
    title = "backend-purity"
    severity = Severity.WARNING
    rationale = (
        "Matrix storage must be reached through the backend-agnostic "
        "RatingMatrix/MatrixBackend facade so dense and sparse engines "
        "stay observationally identical (PR 3 equivalence property)."
    )
    exclude = ("ratings/backends.py", "ratings/matrix.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = base_of_chain(node)
            if base == "self":
                continue
            if node.attr in PRIVATE_PLANE_ATTRS:
                yield ctx.finding(
                    self, node,
                    f"access to backend-private storage '.{node.attr}' "
                    f"outside ratings/backends.py — go through the "
                    f"MatrixBackend protocol",
                    severity=Severity.ERROR,
                )
            elif node.attr in DENSE_VIEW_ATTRS:
                yield ctx.finding(
                    self, node,
                    f"dense-only plane view '.{node.attr}' (raises on the "
                    f"sparse backend) — use row_entries()/entries()/"
                    f"received_*() for backend-agnostic access",
                )
