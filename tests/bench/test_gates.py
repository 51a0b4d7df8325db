"""The prop4.1-vs-prop4.2 growth-ratio gate."""

import pytest

from repro.bench import apply_growth_gate, growth_ratio_gate
from repro.bench.gates import GROWTH_GATE_CHECK
from repro.errors import BenchError

from tests.bench.test_schema import make_valid_doc


def scaling_doc(name, operations, sizes=(100, 200, 400)):
    doc = make_valid_doc(name=name)
    doc["payload"]["scaling"] = {
        "sizes": list(sizes),
        "operations": list(operations),
    }
    return doc


class TestGrowthRatioGate:
    def test_quadratic_vs_linear_passes(self):
        basic = scaling_doc("prop41_basic_scaling", [1e4, 4e4, 16e4])
        optimized = scaling_doc("prop42_optimized_scaling", [1e2, 2e2, 4e2])
        verdict = growth_ratio_gate(basic, optimized)
        assert verdict["pass"] is True
        assert verdict["basic_exponent"] == pytest.approx(2.0)
        assert verdict["optimized_exponent"] == pytest.approx(1.0)
        assert verdict["basic_growth"] == pytest.approx(16.0)

    def test_equal_growth_fails(self):
        basic = scaling_doc("prop41_basic_scaling", [1e4, 2e4, 4e4])
        optimized = scaling_doc("prop42_optimized_scaling", [1e2, 2e2, 4e2])
        assert growth_ratio_gate(basic, optimized)["pass"] is False

    def test_explicit_exponents_win_over_ratio(self):
        basic = scaling_doc("prop41_basic_scaling", [1e4, 4e4, 16e4])
        basic["payload"]["scaling"]["exponent"] = 1.1
        optimized = scaling_doc("prop42_optimized_scaling", [1e2, 2e2, 4e2])
        optimized["payload"]["scaling"]["exponent"] = 1.0
        assert growth_ratio_gate(basic, optimized)["pass"] is False

    def test_mismatched_grids_rejected(self):
        basic = scaling_doc("prop41_basic_scaling", [1, 4], sizes=(10, 20))
        optimized = scaling_doc("prop42_optimized_scaling", [1, 2],
                                sizes=(10, 40))
        with pytest.raises(BenchError, match="size grids"):
            growth_ratio_gate(basic, optimized)

    def test_missing_scaling_block_rejected(self):
        plain = make_valid_doc(name="prop41_basic_scaling")
        other = scaling_doc("prop42_optimized_scaling", [1, 2])
        with pytest.raises(BenchError, match="scaling"):
            growth_ratio_gate(plain, other)


class TestApplyGrowthGate:
    def test_injects_check_into_both_documents(self):
        docs = {
            "prop41_basic_scaling":
                scaling_doc("prop41_basic_scaling", [1e4, 4e4, 16e4]),
            "prop42_optimized_scaling":
                scaling_doc("prop42_optimized_scaling", [1e2, 2e2, 4e2]),
            "lint": make_valid_doc(name="lint"),
        }
        verdict = apply_growth_gate(docs)
        assert verdict["pass"] is True
        for name in ("prop41_basic_scaling", "prop42_optimized_scaling"):
            assert docs[name]["checks"][GROWTH_GATE_CHECK] is True
            assert docs[name]["growth_gate"] == verdict
        assert GROWTH_GATE_CHECK not in docs["lint"]["checks"]

    def test_noop_when_either_bench_missing(self):
        docs = {"prop41_basic_scaling":
                scaling_doc("prop41_basic_scaling", [1, 4])}
        assert apply_growth_gate(docs) is None
