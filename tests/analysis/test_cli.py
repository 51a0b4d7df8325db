"""CLI behaviour and the meta-test: the repository lints clean.

The meta-test is the PR's contract with CI — ``repro lint`` must exit
0 on the current tree.  ``repro lint`` is a single gate: if you add
code that violates an invariant, fix it in the same commit.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.engine import lint_package
from repro.cli import main

#: One REP011 finding: ``_count`` is written without the class's lock.
ONE_FINDING = (
    "import threading\n\n\n"
    "class Svc:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n\n"
    "    def bump(self):\n"
    "        self._count += 1\n"
)


@pytest.fixture()
def bad_pkg(tmp_path):
    """A package with exactly one finding, at ``service/bad.py:10``."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "service").mkdir(parents=True)
    (pkg / "service" / "bad.py").write_text(ONE_FINDING)
    return pkg


class TestLintCommand:
    def test_repository_lints_clean(self, capsys):
        """The gate CI runs: zero findings on the current tree."""
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_no_flags_exits_1_on_a_finding(self, bad_pkg, monkeypatch,
                                           capsys):
        """Failing is the default: no flag turns the gate on."""
        import repro.analysis.engine as engine

        monkeypatch.setattr(engine, "default_package_root", lambda: bad_pkg)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/service/bad.py:10:8: REP011 error" in out
        assert "1 finding(s) (1 error)" in out

    def test_json_report_shape(self, bad_pkg, capsys):
        assert main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"tool", "report_version", "files_checked",
                            "findings", "errors"}
        assert doc["tool"] == "reprolint"
        assert doc["findings"] == [] and doc["errors"] == []
        assert doc["files_checked"] > 50

        assert main(["lint", "--format", "json",
                     "--root", str(bad_pkg)]) == 1
        doc = json.loads(capsys.readouterr().out)
        [finding] = doc["findings"]
        # No baseline, suppression or fingerprint bookkeeping.
        assert set(finding) == {"rule", "severity", "file", "line", "col",
                                "message"}
        assert (finding["rule"], finding["line"]) == ("REP011", 10)

    def test_removed_options_are_usage_errors(self, capsys):
        """The cache and the pool are gone, and so are their options."""
        for option in ("--no-cache", "--cache-dir=x", "--jobs=2"):
            with pytest.raises(SystemExit) as exc:
                main(["lint", option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_does_not_import_the_linter(self):
        """Every ``repro`` start builds the parser; only ``repro lint``
        may pay for importing the analysis package."""
        code = ("import sys\n"
                "from repro.cli import build_parser\n"
                "build_parser().parse_args(['serve'])\n"
                "print('repro.analysis.engine' in sys.modules)\n")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "False"

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rules", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_explain_lists_all_rules(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        from tests.analysis.test_rules import ALL_RULE_IDS

        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("REP")]
        assert listed == ALL_RULE_IDS

    def test_guards_prints_the_inferred_table(self, capsys):
        assert main(["lint", "--guards"]) == 0
        out = capsys.readouterr().out
        assert "guarded-by table" in out
        assert "DetectionService" in out
        assert "_ingest_lock" in out

    def test_guards_json_shape(self, capsys):
        assert main(["lint", "--guards", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "reprolint"
        by_key = {(row["class"], row["attr"]): row["guards"]
                  for row in doc["guards"]}
        assert by_key[("DetectionService", "_published")] == ["_ingest_lock"]


class TestEngine:
    def test_package_walk_covers_the_tree(self):
        result = lint_package()
        assert result.files_checked > 50
        assert result.errors == []

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def nope(:\n")
        result = lint_package(root=pkg, display_base="pkg")
        assert result.files_checked == 1
        assert len(result.errors) == 1
        assert result.errors[0][0] == "pkg/broken.py"

    def test_zero_findings_across_all_rules(self):
        """Re-pin the clean tree rule by rule.

        ``result.findings == []`` says the same thing, but when a rule
        regresses this names it in the assertion instead of dumping
        one undifferentiated list.
        """
        from tests.analysis.test_rules import ALL_RULE_IDS

        result = lint_package()
        by_rule = {
            rule_id: [f for f in result.findings if f.rule == rule_id]
            for rule_id in ALL_RULE_IDS
        }
        assert all(not found for found in by_rule.values()), by_rule
