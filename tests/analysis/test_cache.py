"""Per-file analysis cache: speedup, correctness, and invalidation."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import AnalysisCache
from repro.analysis.engine import lint_package

FILES = 30
FUNCS = 40


def _body(charged=True):
    charge = "    ops.add('freq_check', n)\n"
    return "\n\n".join(
        "def fn_{i}(matrix, ops, n):\n"
        "{charge}"
        "    return matrix.entries()[{mod}]\n".format(
            i=i, charge=charge if charged else "", mod=i % 3)
        for i in range(FUNCS)
    )


@pytest.fixture()
def synthetic_pkg(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "core").mkdir(parents=True)
    for k in range(FILES):
        (pkg / "core" / "mod_{:02d}.py".format(k)).write_text(
            '"""synthetic."""\n\n' + _body(charged=True), encoding="utf-8")
    return pkg


def _lint(pkg, cache_dir):
    # Serial, so the cold/warm ratio measures the cache and not the
    # per-file process pool (tests/analysis/test_cli.py covers that).
    return lint_package(root=pkg, display_base="pkg", cache_dir=cache_dir,
                        jobs=1)


class TestCacheSpeedAndCorrectness:
    def test_warm_run_is_at_least_3x_faster_and_identical(self, tmp_path,
                                                          synthetic_pkg):
        cache_dir = tmp_path / "cache"

        start = time.perf_counter()
        cold = _lint(synthetic_pkg, cache_dir)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = _lint(synthetic_pkg, cache_dir)
        warm_s = time.perf_counter() - start

        def key(f):
            return (f.rule, f.path, f.line, f.col, f.message)

        assert [key(f) for f in warm.findings] == \
            [key(f) for f in cold.findings]
        assert warm.files_checked == cold.files_checked == FILES
        # The warm run skips parse + per-file rules for every file; only
        # the whole-program link re-runs.  3x is the floor the CI gate
        # relies on — locally the ratio is >10x.
        assert warm_s * 3 <= cold_s, (
            "warm cache run not >=3x faster: cold={:.3f}s warm={:.3f}s"
            .format(cold_s, warm_s))

    def test_cache_document_is_populated(self, tmp_path, synthetic_pkg):
        cache_dir = tmp_path / "cache"
        _lint(synthetic_pkg, cache_dir)
        doc = json.loads((cache_dir / "reprolint-cache.json")
                         .read_text(encoding="utf-8"))
        assert doc["tool"] == "reprolint-cache"
        assert len(doc["entries"]) == FILES

    def test_warm_run_analyses_no_file(self, tmp_path, synthetic_pkg):
        cache_dir = tmp_path / "cache"
        assert _lint(synthetic_pkg, cache_dir).files_analyzed == FILES
        assert _lint(synthetic_pkg, cache_dir).files_analyzed == 0


class TestCacheInvalidation:
    def test_edited_file_is_reanalyzed(self, tmp_path, synthetic_pkg):
        cache_dir = tmp_path / "cache"
        clean = _lint(synthetic_pkg, cache_dir)
        assert [f for f in clean.findings if f.rule == "REP002"] == []

        target = synthetic_pkg / "core" / "mod_00.py"
        target.write_text('"""synthetic."""\n\n' + _body(charged=False),
                          encoding="utf-8")

        dirty = _lint(synthetic_pkg, cache_dir)
        flagged = [f for f in dirty.findings if f.rule == "REP002"]
        assert flagged, "stale cache entry served for an edited file"
        assert all("mod_00.py" in f.path for f in flagged)

        # Reverting restores the clean result through the same cache.
        target.write_text('"""synthetic."""\n\n' + _body(charged=True),
                          encoding="utf-8")
        reverted = _lint(synthetic_pkg, cache_dir)
        assert [f for f in reverted.findings if f.rule == "REP002"] == []

    def test_touch_without_edit_still_hits_via_content_hash(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n", encoding="utf-8")
        cache = AnalysisCache(tmp_path / "cache", rules_signature="REP001")
        cache.store("core/m.py", target, target.read_text(encoding="utf-8"),
                    {"findings": []})
        cache.save()

        stat = target.stat()
        import os
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        warm = AnalysisCache(tmp_path / "cache", rules_signature="REP001")
        assert warm.lookup("core/m.py", target) is not None
        assert warm.hits == 1

    def test_rules_signature_keys_the_cache(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n", encoding="utf-8")
        seeded = AnalysisCache(tmp_path / "cache", rules_signature="REP001")
        seeded.store("core/m.py", target, target.read_text(encoding="utf-8"),
                     {"findings": []})
        seeded.save()

        same = AnalysisCache(tmp_path / "cache", rules_signature="REP001")
        assert same.lookup("core/m.py", target) is not None

        # A different --rules subset must not read this cache.
        other = AnalysisCache(tmp_path / "cache",
                              rules_signature="REP001,REP002")
        assert other.lookup("core/m.py", target) is None

    def test_editing_an_analysis_source_misses_the_cache(self, tmp_path):
        """A rule edit must not be hidden behind findings cached by the
        old rule: the cache signature hashes the analysis sources."""
        src = tmp_path / "src"
        shutil.copytree(pathlib.Path(repro.__file__).parent, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "pkg" / "core").mkdir(parents=True)
        (tmp_path / "pkg" / "core" / "m.py").write_text("X = 1\n")

        def lint():
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint", "--rules", "REP004",
                 "--root", str(tmp_path / "pkg"),
                 "--cache-dir", str(tmp_path / "cache")],
                cwd=tmp_path, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            return proc.returncode, proc.stdout

        code, out = lint()
        assert code == 0 and "REP004" not in out
        rule = src / "repro" / "analysis" / "rules" / "rep004_determinism.py"
        text = rule.read_text(encoding="utf-8")
        anchor = "    def check(self, ctx: FileContext) -> Iterator[Finding]:\n"
        assert text.count(anchor) == 1
        rule.write_text(text.replace(
            anchor, anchor + '        yield ctx.finding(self, ctx.tree, "edited")\n'),
            encoding="utf-8")
        code, out = lint()
        assert "src/repro/core/m.py:1:0: REP004 error: edited" in out
        assert code == 1
