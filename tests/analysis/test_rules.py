"""Per-rule positive/negative coverage over the fixture sources.

Every fixture is linted under a *virtual* module path (the engine only
uses the path for scoping), so the fixtures live in the test tree, not
inside the package they pretend to be part of.
"""

import pytest

from repro.analysis import Severity, all_rules, rule_index
from repro.analysis.engine import lint_source

from tests.analysis.conftest import fixture_source, lint_fixture

ALL_RULE_IDS = [
    "REP002", "REP004", "REP005", "REP006", "REP007", "REP008",
    "REP009", "REP011",
]


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(rule_index()) == ALL_RULE_IDS

    def test_instances_are_fresh_and_sorted(self):
        first = all_rules()
        second = all_rules()
        assert [r.rule_id for r in first] == ALL_RULE_IDS
        assert all(a is not b for a, b in zip(first, second))

    def test_unknown_rule_id_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="REP999"):
            all_rules(["REP999"])

    def test_every_rule_documents_its_invariant(self):
        for rule in all_rules():
            assert rule.title, rule.rule_id
            assert rule.rationale, rule.rule_id
            assert rule.severity in (Severity.ERROR, Severity.WARNING)


class TestRep002OpsDiscipline:
    def test_flags_uncharged_sweep(self):
        result = lint_fixture("rep002_violation", "core/fixture.py",
                              only=["REP002"])
        assert len(result.findings) == 1
        assert "tally" in result.findings[0].message
        assert "ops.add" in result.findings[0].message

    def test_charged_sweep_passes(self):
        result = lint_fixture("rep002_clean", "core/fixture.py",
                              only=["REP002"])
        assert result.findings == []

    def test_scope_is_core_only(self):
        result = lint_fixture("rep002_violation", "p2p/fixture.py",
                              only=["REP002"])
        assert result.findings == []


class TestRep002Interprocedural:
    """The whole-program pass absolves helpers charged by their callers."""

    def test_charge_at_the_caller_covers_the_helper_sweep(self):
        result = lint_fixture("rep002_helper_clean", "core/fixture.py",
                              only=["REP002"])
        assert result.findings == []

    def test_helper_is_flagged_when_no_caller_charges(self):
        result = lint_fixture("rep002_helper_violation", "core/fixture.py",
                              only=["REP002"])
        assert len(result.findings) == 1
        message = result.findings[0].message
        assert "_tally" in message
        # The finding names the uncharged public entry point, not just
        # the helper, so the fix site is obvious.
        assert "Detector.detect" in message
        assert "every caller" in message


class TestRep004Determinism:
    def test_flags_ambient_randomness_and_clock(self):
        result = lint_fixture("rep004_violation", "core/fixture.py",
                              only=["REP004"])
        messages = " | ".join(f.message for f in result.findings)
        assert len(result.findings) == 4
        assert "'random'" in messages            # the import
        assert "random.shuffle" in messages
        assert "time.time" in messages
        assert "np.random.randint" in messages

    def test_seeded_generators_pass(self):
        result = lint_fixture("rep004_clean", "core/fixture.py",
                              only=["REP004"])
        assert result.findings == []

    def test_service_layer_is_out_of_scope(self):
        result = lint_fixture("rep004_violation", "service/fixture.py",
                              only=["REP004"])
        assert result.findings == []


class TestRep005SchemaVersioning:
    def test_flags_raw_persisted_json(self):
        result = lint_fixture("rep005_violation", "bench/fixture.py",
                              only=["REP005"])
        assert len(result.findings) == 4
        assert all(f.severity == Severity.ERROR for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "bound from json.dumps" in messages

    def test_dumps_without_persistence_passes(self):
        """Logging, returned bodies, and a bound body handed to a
        socket (no file opened for writing in scope) all pass."""
        result = lint_fixture("rep005_clean", "service/fixture.py",
                              only=["REP005"])
        assert result.findings == []

    def test_schema_modules_are_exempt(self):
        result = lint_fixture("rep005_violation", "bench/schema.py",
                              only=["REP005"])
        assert result.findings == []

    def test_image_writer_module_is_exempt(self):
        """The state-image container carries its own version stamp
        (REPM magic + IMAGE_FORMAT), so its JSON header is exempt."""
        result = lint_fixture("rep005_violation", "service/snapshot.py",
                              only=["REP005"])
        assert result.findings == []


class TestRep006LockOrder:
    def test_flags_opposite_acquisition_orders_across_functions(self):
        result = lint_fixture("rep006_violation", "service/fixture.py",
                              only=["REP006"])
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.severity == Severity.ERROR
        assert "Store._a" in finding.message
        assert "Store._b" in finding.message
        # Both conflicting acquisition sites are spelled out.
        assert finding.message.count("held at") == 2
        assert "service/fixture.py:18" in finding.message
        assert "service/fixture.py:30" in finding.message

    def test_consistent_order_is_clean(self):
        result = lint_fixture("rep006_clean", "service/fixture.py",
                              only=["REP006"])
        assert result.findings == []

    def test_rule_is_program_wide_not_service_scoped(self):
        result = lint_fixture("rep006_violation", "core/fixture.py",
                              only=["REP006"])
        assert len(result.findings) == 1

    def test_plain_lock_reacquired_through_a_helper_is_a_self_deadlock(self):
        source = (
            "import threading\n"
            "\n"
            "\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._l = threading.Lock()\n"
            "\n"
            "    def outer(self):\n"
            "        with self._l:\n"
            "            return self._inner()\n"
            "\n"
            "    def _inner(self):\n"
            "        with self._l:\n"
            "            return 0\n"
        )
        result = lint_source(source, "service/fixture.py", only=["REP006"])
        assert len(result.findings) == 1
        assert "S._l" in result.findings[0].message

    def test_rlock_reacquisition_is_allowed(self):
        source = (
            "import threading\n"
            "\n"
            "\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._l = threading.RLock()\n"
            "\n"
            "    def outer(self):\n"
            "        with self._l:\n"
            "            return self._inner()\n"
            "\n"
            "    def _inner(self):\n"
            "        with self._l:\n"
            "            return 0\n"
        )
        result = lint_source(source, "service/fixture.py", only=["REP006"])
        assert result.findings == []


class TestRep007PersistSafety:
    def test_flags_non_atomic_unguarded_writes(self):
        result = lint_fixture("rep007_violation", "service/fixture.py",
                              only=["REP007"])
        assert len(result.findings) == 2
        assert all(f.severity == Severity.ERROR for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "save_snapshot" in messages
        assert "write_text" in messages

    def test_atomic_rename_append_and_finally_pass(self):
        result = lint_fixture("rep007_clean", "service/fixture.py",
                              only=["REP007"])
        assert result.findings == []

    def test_scope_is_persistence_modules_only(self):
        result = lint_fixture("rep007_violation", "core/fixture.py",
                              only=["REP007"])
        assert result.findings == []

    def test_image_publish_path_is_in_scope(self):
        """The state-image publisher must keep the tmp + os.replace
        discipline: torn writes are flagged under service/snapshot.py."""
        flagged = lint_fixture("rep007_violation", "service/snapshot.py",
                               only=["REP007"])
        assert len(flagged.findings) == 2
        clean = lint_fixture("rep007_clean", "service/snapshot.py",
                             only=["REP007"])
        assert clean.findings == []


class TestRep008ExceptionSafety:
    def test_flags_raising_call_between_writes(self):
        result = lint_fixture("rep008_violation", "service/fixture.py",
                              only=["REP008"])
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.severity == Severity.ERROR
        assert "Coordinator.end_period" in finding.message
        # The finding names both halves of the torn state.
        assert "applied: self._epoch" in finding.message
        assert "still ahead: self._published" in finding.message

    def test_staged_commit_and_rollback_pass(self):
        result = lint_fixture("rep008_clean", "service/fixture.py",
                              only=["REP008"])
        assert result.findings == []

    def test_scope_is_service_only(self):
        result = lint_fixture("rep008_violation", "core/fixture.py",
                              only=["REP008"])
        assert result.findings == []

    def test_lockless_classes_are_exempt(self):
        """No lock attribute means thread-confined state: out of scope."""
        source = fixture_source("rep008_violation").replace(
            "self._lock = threading.Lock()", "self._tag = 'confined'")
        from repro.analysis.engine import lint_source as lint

        result = lint(source, "service/fixture.py", only=["REP008"])
        assert result.findings == []


class TestRep009ResourceLifecycle:
    def test_flags_raise_and_early_return_leaks(self):
        result = lint_fixture("rep009_violation", "service/fixture.py",
                              only=["REP009"])
        assert len(result.findings) == 2
        assert all(f.severity == Severity.ERROR for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "spill_events" in messages
        assert "read_header" in messages
        assert "file handle 'fh'" in messages

    def test_with_finally_and_handoff_pass(self):
        result = lint_fixture("rep009_clean", "service/fixture.py",
                              only=["REP009"])
        assert result.findings == []

    def test_rule_is_program_wide_not_service_scoped(self):
        result = lint_fixture("rep009_violation", "core/fixture.py",
                              only=["REP009"])
        assert len(result.findings) == 2


class TestRep011InconsistentGuard:
    def test_flags_lock_free_read_of_guarded_attribute(self):
        result = lint_fixture("rep011_violation", "service/fixture.py",
                              only=["REP011"])
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.severity == Severity.ERROR
        assert "_count" in finding.message
        assert "Tracker" in finding.message
        assert "lock-free" in finding.message
        # The finding anchors at the unguarded read, not the locked write.
        assert finding.line == 19

    def test_ctor_locked_suffix_and_handler_exemptions_pass(self):
        result = lint_fixture("rep011_clean", "service/fixture.py",
                              only=["REP011"])
        assert result.findings == []

    def test_scope_is_service_only(self):
        result = lint_fixture("rep011_violation", "core/fixture.py",
                              only=["REP011"])
        assert result.findings == []

    def test_lockless_classes_are_exempt(self):
        """No lock attribute means thread-confined state: out of scope."""
        source = fixture_source("rep011_violation").replace(
            "self._lock = threading.Lock()", "self._tag = 'confined'")
        source = source.replace("with self._lock:", "if True:")
        result = lint_source(source, "service/fixture.py", only=["REP011"])
        assert result.findings == []
