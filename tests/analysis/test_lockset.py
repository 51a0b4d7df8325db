"""The lockset layer: guard inference, escape analysis, robustness.

The golden tables pin the *inferred* concurrency contract of the two
service front ends: every piece of published state is guarded by
``_ingest_lock``.  If a refactor drops a lock acquisition, these
tests name the attribute that lost its guard before any runtime race
can.
"""

from __future__ import annotations

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.callgraph import ProgramContext, summarize_module
from repro.analysis.engine import compute_guards, lint_source
from repro.analysis.lockset import LocksetAnalysis


def _analyze(*modules):
    """Build a LocksetAnalysis over ``(module_path, source)`` pairs."""
    summaries = {}
    for module_path, source in modules:
        summaries[module_path] = summarize_module(
            module_path, module_path, source)
    return LocksetAnalysis(ProgramContext(summaries))


class TestGoldenGuardTables:
    """The committed tree's inferred guards, pinned attribute by
    attribute (the ``repro lint --guards`` acceptance contract)."""

    @pytest.fixture(scope="class")
    def by_class(self):
        # One summarize-and-link of the whole tree serves every test.
        tables = {}
        for row in compute_guards():
            tables.setdefault(row.cls, {})[row.attr] = row.guards
        return tables

    def test_detection_service_state_is_guarded_by_ingest_lock(self, by_class):
        guards = by_class["DetectionService"]
        for attr in ("_epoch", "_accepted_per_shard", "_total_per_shard",
                     "_published", "_latest_verdicts", "_history",
                     "_started", "_restarts", "_last_close_error",
                     "_last_snapshot_events", "_ops_baselines", "workers"):
            assert guards[attr] == ("_ingest_lock",), attr

    def test_no_service_attribute_is_unguarded(self, by_class):
        unguarded = [attr for attr, guards
                     in by_class["DetectionService"].items()
                     if not guards]
        assert unguarded == []

    def test_process_service_is_the_same_coordinator(self, by_class):
        """One coordinator: the process service adds no state of its
        own for the table to guard."""
        assert "ProcessDetectionService" not in by_class


class TestEntryLocksets:
    def test_helper_called_only_under_the_lock_inherits_it(self):
        source = textwrap.dedent("""\
            import threading


            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._step()

                def _step(self):
                    self._n += 1
            """)
        analysis = _analyze(("service/s.py", source))
        entry = analysis.entry[("service/s.py", "S._step")]
        assert entry == frozenset({("service/s.py", "S", "_lock")})

    def test_one_lock_free_call_site_clears_the_entry_lockset(self):
        source = textwrap.dedent("""\
            import threading


            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._step()

                def sneak(self):
                    self._step()

                def _step(self):
                    self._n += 1
            """)
        analysis = _analyze(("service/s.py", source))
        assert analysis.entry[("service/s.py", "S._step")] == frozenset()

    def test_locked_suffix_pins_the_class_locks(self):
        source = textwrap.dedent("""\
            import threading


            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def _step_locked(self):
                    self._n += 1
            """)
        analysis = _analyze(("service/s.py", source))
        entry = analysis.entry[("service/s.py", "S._step_locked")]
        assert entry == frozenset({("service/s.py", "S", "_lock")})


_LINES = (
    "import threading",
    "",
    "",
    "class S:",
    "    def __init__(self):",
    "        self._lock = threading.Lock()",
    "        self._a = 0",
    "        self._b = 0",
    "",
    "    def one(self):",
    "        with self._lock:",
    "            self._a += 1",
    "",
    "    def two(self):",
    "        with self._lock:",
    "            self._b = self._a",
    "",
    "    def three(self):",
    "        return self._b",
)

_EDITS = st.lists(
    st.tuples(st.integers(0, len(_LINES) - 1),
              st.sampled_from([
                  None,                              # delete the line
                  "        pass",
                  "        with self._lock:",
                  "            self._a += 1",
                  "        self._b = self._a",
                  "    def extra(self):",
                  "        try:",
                  "        except ValueError:",
              ])),
    max_size=4,
)


class TestNeverCrashes:
    @given(edits=_EDITS)
    @settings(max_examples=60, deadline=None)
    def test_random_lock_region_edits_never_crash_the_analysis(self, edits):
        """Mangling with-blocks, handlers and defs at random must
        yield findings or a syntax-error report — never a traceback
        out of the lockset layer."""
        lines = list(_LINES)
        for index, replacement in edits:
            if replacement is None:
                del lines[index % len(lines)]
            else:
                lines[index % len(lines)] = replacement
            if not lines:
                lines = ["pass"]
        source = "\n".join(lines) + "\n"
        result = lint_source(source, "service/fuzz.py",
                             only=["REP011"])
        # Any outcome is fine — findings, a clean pass, or a reported
        # syntax error — as long as nothing propagates a traceback.
        assert isinstance(result.findings, list)
        assert isinstance(result.errors, list)
