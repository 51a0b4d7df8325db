"""Every bench script must import without side effects.

The registry imports all of ``benchmarks/bench_*.py`` just to *list*
the suite, so importing a bench module must do no work: no files
created anywhere, nothing printed, and a ``run(config)`` entrypoint
exposed.  This is the contract that makes ``repro bench list`` free.
"""

import pathlib

import pytest

from repro.bench import discover, find_bench_dir

EXPECTED_SCRIPTS = 31


def _tree_snapshot(root: pathlib.Path):
    return {p for p in root.rglob("*")}


def test_all_scripts_import_without_side_effects(tmp_path, monkeypatch, capsys):
    bench_dir = find_bench_dir()
    repo_root = bench_dir.parent
    # Run from a scratch cwd so any accidental relative-path write both
    # lands somewhere observable and doesn't dirty the repository.
    monkeypatch.chdir(tmp_path)
    before_bench = _tree_snapshot(bench_dir)
    before_root = set(repo_root.glob("*"))

    specs = discover(bench_dir)

    out, err = capsys.readouterr()
    assert out == "", f"bench imports printed to stdout: {out[:200]!r}"
    assert err == "", f"bench imports printed to stderr: {err[:200]!r}"
    assert _tree_snapshot(bench_dir) == before_bench
    assert set(repo_root.glob("*")) == before_root
    assert list(tmp_path.iterdir()) == []
    assert len(specs) == EXPECTED_SCRIPTS


def test_every_script_exposes_the_harness_contract():
    specs = discover()
    for spec in specs:
        assert callable(spec.run), spec.name
        assert spec.description, spec.name
        assert "full" in spec.tiers or "smoke" in spec.tiers, spec.name


def test_script_names_match_files():
    bench_dir = find_bench_dir()
    files = {p.stem[len("bench_"):] for p in bench_dir.glob("bench_*.py")}
    assert {s.name for s in discover()} == files


@pytest.mark.parametrize("name", ["prop41_basic_scaling",
                                  "prop42_optimized_scaling",
                                  "incremental_screen"])
def test_smoke_tier_membership(name):
    specs = {s.name: s for s in discover()}
    assert "smoke" in specs[name].tiers
    assert specs[name].smoke_config, "smoke benches must shrink their workload"
