"""Golden tests for the per-function CFG builder.

Each test pins the full :meth:`ControlFlowGraph.dump` surface for one
control-flow shape the path-sensitive rules depend on getting right:

* ``try/finally`` with a ``return`` inside the body — the finally
  block must run on *both* continuations (return and exception) and
  fan back out to the matching sink;
* nested ``with`` — each context expression is its own may-raise node;
* ``for``/``else`` — the else arm hangs off the loop test's FALSE
  edge, and ``break`` jumps past it;
* bare ``raise`` in a handler — re-raise has no normal successor.

The dump format is ``[nid kind] label :: kind->dst`` per node; any
builder change that reshapes these graphs must update the goldens
consciously.
"""

import ast
import textwrap

import pytest

from repro.analysis.cfg import build_cfg, stmt_exprs, stmt_may_raise


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


class TestGoldenShapes:
    def test_try_finally_with_return(self):
        cfg = cfg_of('''
            def f(fh):
                try:
                    data = fh.read()
                    return data
                finally:
                    fh.close()
        ''')
        assert cfg.dump() == "\n".join([
            "[0 entry] :: next->4",
            "[1 exit]",
            "[2 raise]",
            "[3 final] <finally> :: next->6",
            "[4 stmt] data = fh.read() :: exc->3 next->5",
            "[5 stmt] return data :: next->3",
            "[6 stmt] fh.close() :: exc->2 next->2 next->1",
        ])

    def test_nested_with(self):
        cfg = cfg_of('''
            def f(a, b):
                with open(a) as fa:
                    with open(b) as fb:
                        merge(fa, fb)
                done()
        ''')
        assert cfg.dump() == "\n".join([
            "[0 entry] :: next->3",
            "[1 exit]",
            "[2 raise]",
            "[3 stmt] with open(a) as fa :: exc->2 next->4",
            "[4 stmt] with open(b) as fb :: exc->2 next->5",
            "[5 stmt] merge(fa, fb) :: exc->2 next->6",
            "[6 stmt] done() :: exc->2 next->1",
        ])

    def test_loop_else_and_break(self):
        cfg = cfg_of('''
            def f(items):
                for item in items:
                    if match(item):
                        break
                else:
                    record_miss()
                return item
        ''')
        assert cfg.dump() == "\n".join([
            "[0 entry] :: next->3",
            "[1 exit]",
            "[2 raise]",
            "[3 test] for item in items :: true->4 false->6",
            "[4 test] if match(item) :: exc->2 true->5 false->3",
            "[5 stmt] break :: next->7",
            "[6 stmt] record_miss() :: exc->2 next->7",
            "[7 stmt] return item :: next->1",
        ])

    def test_bare_raise_reraise(self):
        cfg = cfg_of('''
            def f(x):
                try:
                    risky(x)
                except ValueError:
                    log()
                    raise
        ''')
        assert cfg.dump() == "\n".join([
            "[0 entry] :: next->4",
            "[1 exit]",
            "[2 raise]",
            "[3 handlers] <except> :: exc->5",
            "[4 stmt] risky(x) :: exc->3 next->1",
            "[5 handler] except ValueError :: true->6 false->2",
            "[6 stmt] log() :: exc->2 next->7",
            "[7 stmt] raise :: exc->2",
        ])


class TestStructure:
    def test_finally_runs_on_every_continuation(self):
        """Both the return and the exception path route through finally."""
        cfg = cfg_of('''
            def f(fh):
                try:
                    data = fh.read()
                    return data
                finally:
                    fh.close()
        ''')
        close = next(n for n in cfg.nodes if "fh.close" in n.label)
        succs = {(kind, dst) for dst, kind in close.succ}
        # Fan-out: the saved return continuation and the saved
        # exception continuation, plus finally's own may-raise edge.
        assert ("next", cfg.exit_nid) in succs
        assert ("next", cfg.raise_nid) in succs

    def test_reraise_has_no_normal_successor(self):
        cfg = cfg_of('''
            def f(x):
                try:
                    risky(x)
                except ValueError:
                    raise
        ''')
        reraise = next(n for n in cfg.nodes if n.label == "raise")
        kinds = {kind for _dst, kind in reraise.succ}
        assert kinds == {"exc"}


class TestHelpers:
    @pytest.mark.parametrize("src, raises", [
        ("x = 1", False),
        ("x = f()", True),
        ("x = a.b", False),       # plain attribute reads are trusted
        ("pass", False),
        ("raise ValueError()", True),
        ("assert x", True),
    ])
    def test_stmt_may_raise(self, src, raises):
        stmt = ast.parse(src).body[0]
        assert stmt_may_raise(stmt) is raises

    def test_stmt_exprs_compound_headers_only(self):
        """Compound statements expose only the expression their own
        execution evaluates, never their bodies' expressions."""
        fn = ast.parse(
            "def f():\n"
            "    if cond():\n"
            "        body()\n"
        ).body[0]
        if_stmt = fn.body[0]
        exprs = stmt_exprs(if_stmt)
        assert len(exprs) == 1
        assert ast.unparse(exprs[0]) == "cond()"

    def test_stmt_exprs_with_items(self):
        with_stmt = ast.parse(
            "with open(a) as fa, open(b) as fb:\n    pass\n"
        ).body[0]
        assert [ast.unparse(e) for e in stmt_exprs(with_stmt)] \
            == ["open(a)", "open(b)"]

    def test_stmt_exprs_simple_statement(self):
        stmt = ast.parse("x = f(y)").body[0]
        # Simple statements expose every child expression (targets and
        # values alike); taint checks walk the value side themselves.
        assert "f(y)" in [ast.unparse(e) for e in stmt_exprs(stmt)]
