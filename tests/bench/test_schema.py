"""Result-schema validation and the environment fingerprint."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    environment_fingerprint,
    load_result,
    result_filename,
    validate_result,
)
from repro.bench.schema import wall_clock_stats
from repro.errors import BenchError


def make_valid_doc(name="prop42_optimized_scaling", mean=0.5):
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "description": "d",
        "tiers": ["smoke", "full"],
        "config": {"sizes": [60, 120]},
        "trials": 2,
        "wall_clock": wall_clock_stats([mean, mean]),
        "ops": {"total_operations": 1000},
        "accuracy": None,
        "checks": {"shape": True},
        "payload": {"kind": "figure"},
        "environment": environment_fingerprint(),
        "created_utc": 1754000000.0,
    }


class TestEnvironmentFingerprint:
    def test_carries_toolchain_and_machine(self):
        env = environment_fingerprint()
        assert env["python"].count(".") == 2
        assert env["implementation"]
        assert env["numpy"]
        assert env["cpu_count"] >= 1
        assert env["repro_version"]
        assert "matrix_backend" not in env

    def test_git_sha_none_outside_a_checkout(self, tmp_path):
        env = environment_fingerprint(repo_dir=tmp_path)
        assert env["git_sha"] is None


class TestWallClockStats:
    def test_stats_over_trials(self):
        stats = wall_clock_stats([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["median"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["stdev"] == 1.0
        assert stats["per_trial"] == [1.0, 2.0, 3.0]

    def test_single_trial_has_zero_stdev(self):
        assert wall_clock_stats([0.5])["stdev"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(BenchError):
            wall_clock_stats([])


class TestValidateResult:
    def test_valid_document(self):
        assert validate_result(make_valid_doc()) == []

    def test_non_dict_rejected(self):
        assert validate_result([1, 2]) != []

    @pytest.mark.parametrize("missing", ["name", "wall_clock", "checks",
                                         "payload", "environment"])
    def test_missing_key_reported(self, missing):
        doc = make_valid_doc()
        del doc[missing]
        problems = validate_result(doc)
        assert any(missing in p for p in problems)

    def test_wrong_schema_version(self):
        doc = make_valid_doc()
        doc["schema_version"] = 99
        assert validate_result(doc) != []

    def test_version_1_documents_still_valid(self):
        """Back-compat: committed v1 baselines survive the v2 bump."""
        doc = make_valid_doc()
        doc["schema_version"] = 1
        doc.pop("memory", None)
        assert validate_result(doc) == []

    def test_retired_matrix_backend_key_still_valid(self):
        """Committed baselines written with several matrix engines carry
        ``environment.matrix_backend``; readers ignore the key."""
        doc = make_valid_doc()
        doc["environment"]["matrix_backend"] = "dense"
        assert validate_result(doc) == []

    def test_memory_block_optional_and_typed(self):
        doc = make_valid_doc()
        assert validate_result(doc) == []          # absent: fine
        doc["memory"] = None
        assert validate_result(doc) == []          # null: fine
        doc["memory"] = {"unit": "bytes", "budget_bytes": 1024}
        assert validate_result(doc) == []          # object: fine
        doc["memory"] = 42
        assert any("memory" in p for p in validate_result(doc))

    def test_trial_count_mismatch(self):
        doc = make_valid_doc()
        doc["trials"] = 5
        assert any("trials" in p for p in validate_result(doc))

    def test_non_bool_check(self):
        doc = make_valid_doc()
        doc["checks"]["bad"] = "yes"
        assert any("bad" in p for p in validate_result(doc))

    def test_negative_wall_clock(self):
        doc = make_valid_doc()
        doc["wall_clock"]["mean"] = -1.0
        assert validate_result(doc) != []


class TestCommittedBaselines:
    def test_all_committed_results_validate(self):
        """Every BENCH_*.json at the repo root loads under the current
        schema — the version bump must not orphan the perf trajectory."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        committed = sorted(root.glob("BENCH_*.json"))
        assert committed, "expected committed baselines at the repo root"
        versions = set()
        for path in committed:
            doc = load_result(path)
            versions.add(doc["schema_version"])
        assert versions <= {1, SCHEMA_VERSION}


class TestLoadResult:
    def test_roundtrip(self, tmp_path):
        doc = make_valid_doc()
        path = tmp_path / result_filename(doc["name"])
        path.write_text(json.dumps(doc))
        assert load_result(path)["name"] == doc["name"]

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        with pytest.raises(BenchError):
            load_result(path)

    def test_schema_violation_raises(self, tmp_path):
        doc = make_valid_doc()
        del doc["wall_clock"]
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchError):
            load_result(path)

    def test_result_filename(self):
        assert result_filename("abc") == "BENCH_abc.json"
