"""Symbol table + call graph construction (`repro.analysis.callgraph`)."""

import textwrap

from repro.analysis.callgraph import ProgramContext, module_name, summarize_module


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


CORE = _src("""
    from repro.util.counters import OpCounter


    class Detector:
        def __init__(self, ops=None):
            self.ops = ops if ops is not None else OpCounter()

        def detect(self, matrix):
            self.ops.add("freq_check", matrix.n)
            return helper(matrix)


    def helper(matrix):
        return matrix.entries()[0]
""")

UTIL = _src("""
    class OpCounter:
        def add(self, name, value):
            return None
""")


def _program():
    summaries = {
        "core/det.py": summarize_module(
            "core/det.py", "src/repro/core/det.py", CORE),
        "util/counters.py": summarize_module(
            "util/counters.py", "src/repro/util/counters.py", UTIL),
    }
    return ProgramContext(summaries)


class TestModuleName:
    def test_plain_module(self):
        assert module_name("core/basic.py") == "repro.core.basic"

    def test_package_init(self):
        assert module_name("core/__init__.py") == "repro.core"


class TestSummaries:
    def test_functions_classes_and_imports_are_recorded(self):
        summary = summarize_module("core/det.py", "src/repro/core/det.py",
                                   CORE)
        assert set(summary.functions) == {
            "Detector.__init__", "Detector.detect", "helper",
        }
        assert "Detector" in summary.classes
        assert summary.imports["OpCounter"] == "repro.util.counters.OpCounter"

    def test_charges_and_sweeps_are_attributed(self):
        summary = summarize_module("core/det.py", "src/repro/core/det.py",
                                   CORE)
        assert summary.functions["Detector.detect"].charges_ops
        helper = summary.functions["helper"]
        assert not helper.charges_ops
        assert helper.is_public
        assert len(helper.sweeps) == 1


class TestResolution:
    def test_same_module_name_call_is_resolved(self):
        program = _program()
        detect = ("core/det.py", "Detector.detect")
        assert ("core/det.py", "helper") in program.resolved[detect]

    def test_callers_include_the_resolved_caller(self):
        program = _program()
        callers = program.callers_of(("core/det.py", "helper"))
        assert ("core/det.py", "Detector.detect") in callers

    def test_call_on_unknown_receiver_falls_back_to_candidates(self):
        a = _src("""
            def run(rows, sink):
                return [sink.dispatch(r) for r in rows]
        """)
        b = _src("""
            class Sink:
                def dispatch(self, row):
                    return row

                def other(self):
                    return 0
        """)
        program = ProgramContext({
            "core/a.py": summarize_module("core/a.py", "src/repro/core/a.py", a),
            "core/b.py": summarize_module("core/b.py", "src/repro/core/b.py", b),
        })
        run = ("core/a.py", "run")
        # `sink` is an untyped parameter — the conservative fallback
        # links every first-party method named `dispatch`.
        assert ("core/b.py", "Sink.dispatch") in program.candidates[run]
        assert program.resolved.get(run, set()) == set()
        assert run in program.callers_of(("core/b.py", "Sink.dispatch"))
