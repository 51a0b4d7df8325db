"""Rule registry and the per-file context rules visit.

A *rule* is a small AST pass with metadata: an id (``REP002`` …), the
invariant it protects, a default severity, and a scope — which files
under ``src/repro`` it applies to.  Rules register themselves via
:func:`register` at import time; :func:`all_rules` returns fresh
instances so engine runs never share visitor state.

Scoping uses the *module path* — the file's path relative to the
``repro`` package root (``core/optimized.py``,
``service/coordinator.py``).  Tests lint fixture sources under a
*virtual* module path to exercise scope behaviour without placing
fixtures inside the package.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Type

from repro.analysis.findings import Finding, Severity
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import ProgramContext

__all__ = ["FileContext", "Rule", "register", "all_rules", "rule_index"]


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, module_path: str, source: str, display_path: str = ""):
        self.module_path = module_path          # posix, relative to repro/
        self.display_path = display_path or module_path
        self.tree = ast.parse(source)

    def finding(self, rule: "Rule", node: ast.AST, message: str,
                severity: str = "") -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=rule.rule_id,
            severity=severity or rule.severity,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for reprolint rules.

    Class attributes
    ----------------
    rule_id / title / severity:
        Identity and default severity of emitted findings.
    rationale:
        The invariant the rule protects — shown by ``repro lint
        --explain`` and quoted in docs/STATIC_ANALYSIS.md.
    scope:
        Module-path prefixes the rule applies to (empty: everywhere
        under ``repro/``).
    exclude:
        Exact module paths exempt from the rule (the facade modules a
        purity rule exists to protect, designated writer modules …).
    """

    rule_id: str = ""
    title: str = ""
    severity: str = Severity.WARNING
    rationale: str = ""
    scope: Sequence[str] = ()
    exclude: Sequence[str] = ()
    #: Whole-program rules run once per lint over the linked call graph
    #: (:class:`repro.analysis.callgraph.ProgramContext`) instead of
    #: once per file; ``check`` is never called on them.
    whole_program: bool = False

    def applies_to(self, module_path: str) -> bool:
        if module_path in self.exclude:
            return False
        if not self.scope:
            return True
        return any(module_path.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def check_program(self, program: "ProgramContext") -> Iterator[Finding]:  # pragma: no cover
        """Cross-file pass for ``whole_program`` rules."""
        raise NotImplementedError

    def run(self, ctx: FileContext) -> List[Finding]:
        if not self.applies_to(ctx.module_path):
            return []
        return list(self.check(ctx))


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ReproError(f"rule {rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_cls:
        raise ReproError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def _load_rules() -> None:
    # Importing the package registers every bundled rule exactly once.
    from repro.analysis import rules  # noqa: F401

    assert _REGISTRY, "rule package imported but nothing registered"


def rule_index() -> Dict[str, Type[Rule]]:
    """Registered rule classes by id (loads the bundled rules)."""
    _load_rules()
    return dict(_REGISTRY)


def all_rules(only: Sequence[str] = ()) -> List[Rule]:
    """Fresh instances of the registered rules, sorted by id.

    ``only`` restricts to the named ids; unknown ids raise so a typo in
    ``--rules`` cannot silently lint nothing.
    """
    index = rule_index()
    if only:
        unknown = sorted(set(only) - set(index))
        if unknown:
            raise ReproError(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(index))})"
            )
        chosen: Callable[[str], bool] = lambda rid: rid in set(only)  # noqa: E731
    else:
        chosen = lambda _rid: True  # noqa: E731
    return [cls() for rid, cls in sorted(index.items()) if chosen(rid)]
