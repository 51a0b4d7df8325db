"""End-to-end coverage of ``repro bench list|run|compare``."""

import json

import pytest

from repro.bench import load_result
from repro.cli import main


@pytest.fixture
def bench_env(monkeypatch, tmp_path):
    """Point the harness at the real suite, writing under tmp."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestBenchList:
    def test_lists_every_benchmark(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "31 registered benchmarks" in out
        for name in ("prop41_basic_scaling", "fig5_eigentrust_b06",
                     "incremental_screen", "micro_components",
                     "sparse_scaling", "lint"):
            assert name in out

    def test_smoke_tier_marked(self, capsys):
        main(["bench", "list"])
        out = capsys.readouterr().out
        smoke_lines = [line for line in out.splitlines()
                       if line.lstrip().startswith("* ")]
        assert len(smoke_lines) == 6


class TestBenchRun:
    def test_smoke_tier_writes_schema_valid_json(self, bench_env, capsys):
        code = main(["bench", "run", "--tier", "smoke", "--trials", "1",
                     "--out-dir", str(bench_env)])
        assert code == 0
        out = capsys.readouterr().out
        assert "growth gate" in out
        files = sorted(p.name for p in bench_env.glob("BENCH_*.json"))
        assert files == [
            "BENCH_incremental_screen.json",
            "BENCH_lint.json",
            "BENCH_prop41_basic_scaling.json",
            "BENCH_prop42_optimized_scaling.json",
            "BENCH_ring_scorecard.json",
            "BENCH_sparse_scaling.json",
        ]
        for path in bench_env.glob("BENCH_*.json"):
            doc = load_result(path)  # raises on schema violation
            assert doc["environment"]["python"]
        gated = load_result(bench_env / "BENCH_prop42_optimized_scaling.json")
        assert gated["checks"]["prop41_vs_prop42_growth"] is True
        assert gated["growth_gate"]["exponent_gap"] >= 0.5

    def test_named_subset_with_no_write(self, bench_env, capsys):
        code = main(["bench", "run", "prop42_optimized_scaling",
                     "--trials", "1", "--no-write"])
        assert code == 0
        assert list(bench_env.glob("BENCH_*.json")) == []
        assert "prop42_optimized_scaling" in capsys.readouterr().out

    def test_unknown_name_is_an_error(self, bench_env, capsys):
        assert main(["bench", "run", "no_such_bench", "--trials", "1"]) == 2
        assert "no_such_bench" in capsys.readouterr().err


class TestBenchCompare:
    def _run_smoke(self, out_dir):
        assert main(["bench", "run", "--tier", "smoke", "--trials", "1",
                     "--out-dir", str(out_dir)]) == 0

    def test_identical_baseline_passes(self, bench_env, capsys):
        self._run_smoke(bench_env)
        code = main(["bench", "compare", "--baseline", str(bench_env),
                     "--current", str(bench_env),
                     "--max-regress", "20%"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_2x_slowdown_fails(self, bench_env, capsys):
        self._run_smoke(bench_env)
        slow = bench_env / "slow"
        slow.mkdir()
        for path in bench_env.glob("BENCH_*.json"):
            doc = json.loads(path.read_text())
            wall = doc["wall_clock"]
            wall["per_trial"] = [t * 2 for t in wall["per_trial"]]
            for stat in ("mean", "median", "min", "max"):
                wall[stat] *= 2
            (slow / path.name).write_text(json.dumps(doc))
        code = main(["bench", "compare", "--baseline", str(bench_env),
                     "--current", str(slow), "--max-regress", "20%"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_ops_metric_gates_at_zero(self, bench_env, capsys):
        self._run_smoke(bench_env)
        code = main(["bench", "compare", "--baseline", str(bench_env),
                     "--current", str(bench_env),
                     "--max-regress", "0%", "--metric", "ops"])
        assert code == 0

    def test_missing_baseline_is_usage_error(self, bench_env, capsys):
        code = main(["bench", "compare",
                     "--baseline", str(bench_env / "absent")])
        assert code == 2
        assert "error" in capsys.readouterr().err
