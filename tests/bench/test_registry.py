"""Registry discovery over ``benchmarks/bench_*.py``."""

import pytest

from repro.bench import discover, find_bench_dir
from repro.errors import BenchError


class TestFindBenchDir:
    def test_autodetects_checkout_layout(self):
        bench_dir = find_bench_dir()
        assert (bench_dir / "bench_prop41_basic_scaling.py").exists()

    def test_env_override(self, monkeypatch):
        real = find_bench_dir()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(real))
        assert find_bench_dir() == real

    def test_missing_dir_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "nope"))
        monkeypatch.chdir(tmp_path)
        # cwd fallback and env candidate are both empty, but the
        # checkout-relative fallback still resolves: explicitly point at
        # an empty dir to prove the error path.
        with pytest.raises(BenchError):
            discover(bench_dir=tmp_path)


class TestDiscover:
    def test_specs_are_sorted_and_described(self):
        specs = discover()
        names = [s.name for s in specs]
        assert names == sorted(names)
        assert all(s.description for s in specs)

    def test_name_filter(self):
        specs = discover(names=["prop41_basic_scaling", "lint"])
        assert [s.name for s in specs] == ["prop41_basic_scaling", "lint"]

    def test_unknown_name_raises(self):
        with pytest.raises(BenchError, match="frobnicate"):
            discover(names=["frobnicate"])

    def test_tier_filter(self):
        smoke = discover(tier="smoke")
        assert {s.name for s in smoke} == {
            "incremental_screen", "lint", "prop41_basic_scaling",
            "prop42_optimized_scaling", "ring_scorecard", "sparse_scaling",
        }
        assert len(discover(tier="full")) == 31

    def test_smoke_config_resolution(self):
        spec = discover(names=["prop42_optimized_scaling"])[0]
        smoke = spec.config_for_tier("smoke")
        assert smoke and "sizes" in smoke
        assert spec.config_for_tier("full") is None

    def test_rejects_script_without_run(self, tmp_path):
        (tmp_path / "bench_broken.py").write_text('"""Broken."""\nX = 1\n')
        with pytest.raises(BenchError, match="run"):
            discover(bench_dir=tmp_path)

    def test_rejects_unknown_tier(self, tmp_path):
        (tmp_path / "bench_weird.py").write_text(
            '"""Weird."""\nTIERS = ("nightly",)\n'
            "def run(config=None):\n    return {}\n"
        )
        with pytest.raises(BenchError, match="nightly"):
            discover(bench_dir=tmp_path)

    def test_rejects_smoke_config_outside_smoke_tier(self, tmp_path):
        (tmp_path / "bench_confused.py").write_text(
            '"""Confused."""\nSMOKE_CONFIG = {"n": 1}\n'
            "def run(config=None):\n    return {}\n"
        )
        with pytest.raises(BenchError, match="SMOKE_CONFIG"):
            discover(bench_dir=tmp_path)

    def test_import_error_is_wrapped(self, tmp_path):
        (tmp_path / "bench_exploding.py").write_text("raise RuntimeError('boom')\n")
        with pytest.raises(BenchError, match="boom"):
            discover(bench_dir=tmp_path)
