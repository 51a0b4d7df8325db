"""The trial runner: schema-valid documents, file emission, suite gate."""

import itertools
import time

import pytest

from repro.bench import (
    discover,
    load_result,
    render_summary,
    run_benchmark,
    run_suite,
    validate_result,
    write_result,
)
from repro.bench.registry import BenchSpec
from repro.errors import BenchError


@pytest.fixture(scope="module")
def smoke_specs():
    return {s.name: s for s in discover(tier="smoke")}


def make_spec(name="synthetic", payload=None, tiers=("full",)):
    def run(config=None):
        return dict(payload or {"kind": "micro", "checks": {"ok": True},
                                "checks_pass": True})
    return BenchSpec(name=name, path=None, run=run, tiers=tiers,
                     description="synthetic bench")


class TestRunBenchmark:
    def test_prop42_smoke_is_schema_valid(self, smoke_specs):
        spec = smoke_specs["prop42_optimized_scaling"]
        doc = run_benchmark(spec, config=spec.config_for_tier("smoke"),
                            trials=2)
        assert validate_result(doc) == []
        assert doc["trials"] == 2
        assert len(doc["wall_clock"]["per_trial"]) == 2
        assert doc["ops"]["total_operations"] > 0
        assert doc["payload"]["scaling"]["sizes"] == [60, 120, 240]
        assert doc["config"] == {"sizes": [60, 120, 240], "seed": 0}
        assert doc["checks"]["exponent_in_band"] is True

    def test_zero_trials_rejected(self):
        with pytest.raises(BenchError):
            run_benchmark(make_spec(), trials=0)

    def test_non_dict_payload_rejected(self):
        spec = BenchSpec(name="bad", path=None, run=lambda config=None: 42)
        with pytest.raises(BenchError, match="dict"):
            run_benchmark(spec, trials=1)

    def test_unknown_config_key_propagates(self, smoke_specs):
        spec = smoke_specs["prop42_optimized_scaling"]
        with pytest.raises(BenchError, match="typo_key"):
            run_benchmark(spec, config={"typo_key": 1}, trials=1)


class TestWriteResult:
    def test_writes_bench_named_file(self, tmp_path):
        doc = run_benchmark(make_spec("alpha"), trials=1)
        path = write_result(doc, tmp_path)
        assert path.name == "BENCH_alpha.json"
        assert load_result(path)["name"] == "alpha"


class TestRunSuite:
    def test_smoke_suite_writes_gated_documents(self, tmp_path, smoke_specs,
                                                monkeypatch):
        # A clock that advances a fixed 1 s per reading, unrelated to
        # elapsed time: no smoke check may depend on what it returns.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter",
                            lambda: float(next(ticks)))
        docs = run_suite(list(smoke_specs.values()), tier="smoke", trials=1,
                         out_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert files == [
            "BENCH_incremental_screen.json",
            "BENCH_lint.json",
            "BENCH_prop41_basic_scaling.json",
            "BENCH_prop42_optimized_scaling.json",
            "BENCH_ring_scorecard.json",
            "BENCH_sparse_scaling.json",
        ]
        for name in ("prop41_basic_scaling", "prop42_optimized_scaling"):
            written = load_result(tmp_path / f"BENCH_{name}.json")
            assert written["checks"]["prop41_vs_prop42_growth"] is True
            assert written["growth_gate"]["pass"] is True
        assert docs["prop41_basic_scaling"]["growth_gate"]["exponent_gap"] > 0.5
        for name, doc in docs.items():
            assert doc["payload"]["checks_pass"] is True, name
            assert all(doc["checks"].values()), (name, doc["checks"])

    def test_suite_without_scaling_pair_skips_gate(self, tmp_path):
        docs = run_suite([make_spec("solo")], tier="full", trials=1,
                         out_dir=tmp_path)
        assert "growth_gate" not in docs["solo"]

    def test_render_summary_flags_failures(self):
        failing = make_spec(
            "failing",
            payload={"kind": "micro", "checks": {"bad": False},
                     "checks_pass": False},
        )
        docs = run_suite([failing], tier="full", trials=1)
        text = render_summary(docs)
        assert "failing" in text
        assert "FAIL: bad" in text
