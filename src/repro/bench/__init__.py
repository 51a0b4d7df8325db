"""``repro.bench`` — the unified benchmark harness.

Wraps every ``benchmarks/bench_*.py`` script behind one contract
(side-effect-free ``run(config) -> dict``), runs them over repeated
trials, emits schema-validated ``BENCH_<name>.json`` documents with an
environment fingerprint and deterministic operation counts, and gates
changes with a baseline comparison (``repro bench compare``) plus the
prop4.1-vs-prop4.2 growth-ratio check that re-verifies the paper's
O(m·n) claim on every smoke run.

See ``docs/BENCHMARKS.md`` for the architecture, the result schema,
and how to add a benchmark.
"""

from repro.bench.adapters import (
    bench_main,
    experiment_entrypoint,
    figure_payload,
    merge_config,
)
from repro.bench.compare import (
    ComparisonReport,
    ComparisonRow,
    compare_result_sets,
    load_result_set,
    parse_allowance,
)
from repro.bench.gates import (
    GROWTH_GATE_CHECK,
    apply_growth_gate,
    growth_ratio_gate,
)
from repro.bench.registry import (
    FULL_TIER,
    SMOKE_TIER,
    BenchSpec,
    discover,
    find_bench_dir,
)
from repro.bench.runner import (
    render_summary,
    run_benchmark,
    run_suite,
    write_result,
)
from repro.bench.schema import (
    RESULT_PREFIX,
    SCHEMA_VERSION,
    environment_fingerprint,
    load_result,
    result_filename,
    validate_result,
)

__all__ = [
    "bench_main",
    "experiment_entrypoint",
    "figure_payload",
    "merge_config",
    "ComparisonReport",
    "ComparisonRow",
    "compare_result_sets",
    "load_result_set",
    "parse_allowance",
    "GROWTH_GATE_CHECK",
    "apply_growth_gate",
    "growth_ratio_gate",
    "FULL_TIER",
    "SMOKE_TIER",
    "BenchSpec",
    "discover",
    "find_bench_dir",
    "render_summary",
    "run_benchmark",
    "run_suite",
    "write_result",
    "RESULT_PREFIX",
    "SCHEMA_VERSION",
    "environment_fingerprint",
    "load_result",
    "result_filename",
    "validate_result",
]
