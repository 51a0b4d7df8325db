"""Self-tests of the benchmark: its metric table, timing rules and workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (outside the ``tests/`` tree, so the tier-1 suite does not run the
slow tiny-size passes).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import calibrate, inputs, stats
from perfbench.harness import Op, run_stage
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# the metric table
# ----------------------------------------------------------------------
def test_metric_names_and_units_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _ops(kinds):
    queue = [Op(kind) for kind in kinds]
    return lambda: queue.pop(0) if queue else None


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()

    def execute(_worker, op):
        clock.now += 1.0 if op.kind == "stall" else 0.001
        op.ok = True

    result = run_stage(_ops(["stall"] + ["fast"] * 5), execute, workers=1,
                       seconds=100.0, rate=10.0, clock=clock, sleep=clock.sleep)
    latencies = result.latencies_ms(["stall", "fast"])
    assert latencies[0] == pytest.approx(1000.0)
    # op k was due at 0.1 k s but could only start once the stall ended
    for k in range(1, 6):
        assert latencies[k] == pytest.approx(1000.0 + k - 100.0 * k, abs=1e-6)
    assert result.lateness_ms()[1] == pytest.approx(900.0)


def test_closed_loop_times_from_send():
    clock = FakeClock()

    def execute(_worker, op):
        clock.now += 1.0 if op.kind == "stall" else 0.001
        op.ok = True

    result = run_stage(_ops(["stall", "fast"]), execute, workers=1, seconds=100.0,
                       rate=None, clock=clock, sleep=clock.sleep)
    assert result.latencies_ms(["fast"]) == [pytest.approx(1.0)]


def test_barrier_ops_run_alone():
    active = []
    overlaps = []
    lock = threading.Lock()

    def execute(_worker, op):
        with lock:
            active.append(op.kind)
            if op.kind == "close" and len(active) > 1 or "close" in active[:-1]:
                overlaps.append(list(active))
        threading.Event().wait(0.002)
        with lock:
            active.remove(op.kind)
        op.ok = True

    kinds = (["post"] * 5 + ["close"]) * 4
    queue = [Op(k, barrier=(k == "close")) for k in kinds]
    run_stage(lambda: queue.pop(0) if queue else None, execute, workers=2,
              seconds=30.0, rate=None)
    assert not queue
    assert overlaps == []


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_speed_factor_scales_to_the_reference_speed():
    reference = calibrate.REFERENCE_KERNEL_S
    assert calibrate.speed_factor([reference] * 3) == pytest.approx(1.0)
    # a host at half speed: every kernel run and every measured time doubles
    assert calibrate.speed_factor([2 * reference, 2 * reference]) == pytest.approx(0.5)
    # a mean, so a run that alternates between two speeds pays the average
    assert calibrate.speed_factor([reference, 3 * reference]) == pytest.approx(0.5)
    # each sample is scaled by the kernel runs on either side of it
    assert calibrate.at_reference([1.0, 2.0], [reference, reference, 3 * reference]) == [
        pytest.approx(1.0), pytest.approx(1.0)]
    with pytest.raises(ValueError):
        calibrate.at_reference([1.0, 2.0], [reference, reference])
    assert calibrate.kernel() > 0


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supported(200, 95)
    assert not stats.supported(199, 95)
    assert stats.supported(20, 50)
    assert not stats.supported(19, 50)
    summary = stats.summarize([float(i) for i in range(100)])
    assert "p95" not in summary
    assert summary["tail_q"] == 90
    assert summary["p50"] == pytest.approx(49.5)
    assert stats.summarize([float(i) for i in range(200)])["tail_q"] == 95
    assert "tail_q" not in stats.summarize([1.0] * 19)
    assert "p50" not in stats.summarize([1.0] * 19)


def test_median_refuses_too_few_samples():
    assert stats.median([float(i) for i in range(21)]) == 10.0
    with pytest.raises(ValueError):
        stats.median([1.0] * 19)


# ----------------------------------------------------------------------
# reproducible inputs
# ----------------------------------------------------------------------
def _digest(events):
    sha = hashlib.sha256()
    for column in events:
        sha.update(column.astype("int64").tobytes())
    return sha.hexdigest()


def test_seed_reproduces_identical_inputs():
    def fingerprint(seed):
        plan = inputs.make_plan(seed, 200, 500, 2, (4,), rotate=2)
        periods = [inputs.period_events(plan, seed, p) for p in range(3)]
        bodies = [inputs.ratings_body(b) for b in inputs.batches(periods[0], 50)]
        return plan, [_digest(p) for p in periods], bodies

    assert fingerprint(7) == fingerprint(7)
    assert fingerprint(7)[1] != fingerprint(8)[1]


def test_trace_file_is_reproducible(tmp_path):
    plan = inputs.make_plan(3, 100, 400, 2)
    events = inputs.period_events(plan, 3, 0)
    inputs.write_trace(tmp_path / "a.jsonl", events)
    inputs.write_trace(tmp_path / "b.jsonl", inputs.period_events(plan, 3, 0))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


# ----------------------------------------------------------------------
# tiny-size passes
# ----------------------------------------------------------------------
def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "6", "--trace", str(trace), "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("http_ingest", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
