"""The ``batch_trace`` workload: the paper's offline detection job.

Set-up writes one JSONL trace (every planted pair and ring in one
period).  The job runs in a child process, so its peak RSS is the
job's own: it repeats passes of ``load_jsonl`` -> ``to_matrix`` (the
default matrix backend) -> ``OptimizedCollusionDetector.detect`` ->
``SuspectGraph.from_matrix`` + ``RingDetector.detect`` until its time
is up, runs the reference kernel of ``calibrate.py`` before the first
pass and after each one, and prints the pass times, kernel times and
verdicts as JSON.  Pass times are reported at the reference host speed.

Job usage: ``python perfbench/batch.py --trace FILE --n N --seconds S
[--spans-out FILE]``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402
from perfbench.calibrate import at_reference, kernel, speed_factor  # noqa: E402
from perfbench.common import (  # noqa: E402
    THRESHOLDS,
    Outcome,
    apply_span_layers,
    empty_layers,
    layer_table,
)
from perfbench.harness import ROOT, Workspace, child_env, peak_rss_mb  # noqa: E402
from perfbench.inputs import make_plan, period_events, write_trace  # noqa: E402
from perfbench.trace import Tracer, self_times  # noqa: E402


@dataclass(frozen=True)
class BatchScale:
    n: int
    background: int
    pairs: int
    ring_sizes: Tuple[int, ...]
    critics: int
    critic_ratings: int
    setups: int = 5


SCALES: Dict[str, BatchScale] = {
    # ~24k ratings: small enough that every run half fits the 20 passes
    # a p50 needs, at the paper-scale n whose dense matrix is 96 MB.
    "full": BatchScale(n=2000, background=20000, pairs=40, ring_sizes=(4, 4, 4),
                       critics=4, critic_ratings=3, setups=11),
    "tiny": BatchScale(n=120, background=3000, pairs=3, ring_sizes=(4,),
                       critics=6, critic_ratings=4, setups=1),
}


# ----------------------------------------------------------------------
# the job (child process)
# ----------------------------------------------------------------------
def _matrix_bytes(matrix: Any) -> int:
    """Bytes of the numpy arrays the matrix backend holds."""
    backend = matrix.backend
    names = set(getattr(backend, "__dict__", {}))
    for cls in type(backend).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return sum(int(getattr(backend, name).nbytes) for name in names
               if hasattr(getattr(backend, name, None), "nbytes"))


def _pass(trace: pathlib.Path, n: int) -> Dict[str, Any]:
    """One timed pass: trace file to verdicts plus rings."""
    from repro.core.optimized import OptimizedCollusionDetector
    from repro.ratings import io as ratings_io
    from repro.rings import RingDetector, SuspectGraph

    started = time.perf_counter()
    ledger = ratings_io.load_jsonl(trace, n=n)
    matrix = ledger.to_matrix()
    detect_started = time.perf_counter()
    report = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
    detect_s = time.perf_counter() - detect_started
    graph = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS)
    rings = RingDetector(THRESHOLDS).detect(graph)
    return {
        "batch_s": time.perf_counter() - started,
        "detect_s": detect_s,
        "events": len(ledger),
        "pairs": sorted(report.pair_set()),
        "ring_pairs": sorted(rings.pair_set()),
        "groups": [list(g.members) for g in rings.groups],
        "edges": graph.num_edges,
        "formula_eval": int(report.operations.get("formula_eval", 0)),
        "matrix_bytes": _matrix_bytes(matrix),
        "backend": matrix.backend_name,
    }


def job(trace: pathlib.Path, n: int, seconds: float,
        spans_out: Optional[pathlib.Path]) -> Dict[str, Any]:
    from repro.core.online import OnlineCollusionDetector
    from repro.core.optimized import OptimizedCollusionDetector
    from repro.ratings import io as ratings_io
    from repro.ratings.ledger import RatingLedger
    from repro.rings import RingDetector, SuspectGraph

    tracer = Tracer()
    if spans_out is not None:
        tracer.wrap(ratings_io, "load_jsonl", "io.load")
        tracer.tally(ratings_io, "decode_jsonl", "io.decode")
        tracer.wrap(RatingLedger, "to_matrix", "matrix.build")
        tracer.wrap(OptimizedCollusionDetector, "detect", "optimized.detect")
        tracer.wrap(SuspectGraph, "from_matrix", "rings.from_matrix")
        tracer.wrap(SuspectGraph, "build", "rings.build")
        tracer.tally(OnlineCollusionDetector, "observe", "online.observe")
        tracer.wrap(OnlineCollusionDetector, "period_candidates", "online.screen")
        tracer.wrap(RingDetector, "detect", "rings.detect")
    passes: List[Dict[str, Any]] = []
    kernel_s = [kernel()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < 2 * stats.MIN_BEYOND:
        passes.append(_pass(trace, n))
        # Free the pass's matrices before the next one, so the peak
        # resident set is one pass's, whenever the collector would run.
        gc.collect()
        kernel_s.append(kernel())
    if spans_out is not None:
        tracer.dump(spans_out)
    return {"passes": passes, "kernel_s": kernel_s,
            "peak_rss_mb": peak_rss_mb([os.getpid()])}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True, type=pathlib.Path)
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--spans-out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    print(json.dumps(job(args.trace, args.n, args.seconds, args.spans_out)))
    return 0


# ----------------------------------------------------------------------
# the workload (benchmark process)
# ----------------------------------------------------------------------
def _run_job(ws: Workspace, trace: pathlib.Path, n: int, seconds: float,
             spans_out: Optional[pathlib.Path]) -> Dict[str, Any]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "batch.py"), "--trace", str(trace),
           "--n", str(n), "--seconds", str(seconds)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    done = subprocess.run(cmd, env=child_env(), cwd=str(ws.path), capture_output=True,
                          text=True, timeout=seconds + 120)
    if done.returncode != 0:
        raise RuntimeError(f"batch job failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])  # type: ignore[no-any-return]


def _setup(scale: BatchScale, seed: int, ws: Workspace) -> Tuple[float, pathlib.Path, Any]:
    started = time.perf_counter()
    plan = make_plan(seed, scale.n, scale.background, scale.pairs, scale.ring_sizes,
                     critics=scale.critics, critic_ratings=scale.critic_ratings)
    path = ws.mkdtemp("trace-") / "trace.jsonl"
    write_trace(path, period_events(plan, seed, 0))
    return time.perf_counter() - started, path, plan


def _check(plan: Any, result: Dict[str, Any]) -> Tuple[int, List[str]]:
    """Planted pairs and rings recovered, no honest node accused, and the
    ring pass agrees with the pair detector, on every pass."""
    expected = {tuple(p) for p in plan.pairs}
    expected |= {(a, b) for ring in plan.rings for a in ring for b in ring if a < b}
    problems = []
    checks = 0
    for index, done in enumerate(result["passes"]):
        checks += 3
        pairs = {tuple(p) for p in done["pairs"]}
        if pairs != expected:
            problems.append(f"pass {index}: pairs {sorted(pairs ^ expected)} differ")
        if {tuple(p) for p in done["ring_pairs"]} != pairs:
            problems.append(f"pass {index}: ring pass pairs differ from batch pairs")
        groups = [set(g) for g in done["groups"]]
        if not all(any(set(ring) <= g for g in groups) for ring in plan.rings):
            problems.append(f"pass {index}: a planted ring was not recovered")
    return checks, problems


def run(seed: int, seconds: float, trace: bool, size: str, ws: Workspace) -> Outcome:
    scale = SCALES[size]
    setup_times = []
    setup_kernel_s = [kernel()]
    path = plan = None
    for _ in range(scale.setups if not trace else 1):
        elapsed, path, plan = _setup(scale, seed, ws)
        setup_times.append(elapsed)
        setup_kernel_s.append(kernel())
    assert path is not None
    setup_s = statistics.median(at_reference(setup_times, setup_kernel_s))

    def summary(result: Dict[str, Any]) -> Dict[str, float]:
        # CPU-bound times, at the reference host speed (calibrate.py)
        passes = result["passes"]
        batch_s = at_reference([p["batch_s"] for p in passes], result["kernel_s"])
        detect_s = at_reference([p["detect_s"] for p in passes], result["kernel_s"])
        events = sum(p["events"] for p in passes)
        return {
            # the median of a few set-ups, as the benchmark's set-up time is defined
            "setup_s": setup_s,
            "ingest_eps": events / sum(batch_s),
            "op_p50_ms": 1000.0 * stats.median(batch_s),
            "close_p50_ms": 1000.0 * stats.median(detect_s),
            "peak_rss_mb": float(result["peak_rss_mb"]),
        }

    if not trace:
        result = _run_job(ws, path, scale.n, seconds, None)
        checks, problems = _check(plan, result)
        detail = {"passes": len(result["passes"]),
                  "speed_factor": speed_factor(result["kernel_s"]),
                  "raw_batch_s": stats.summarize([p["batch_s"] for p in result["passes"]]),
                  "setup_times_s": setup_times, "problems": problems[:10],
                  "backend": result["passes"][0]["backend"]}
        return Outcome(summary(result), checks, len(problems), not problems, detail)

    plain = _run_job(ws, path, scale.n, seconds / 2, None)
    spans_out = ws.path / "batch-spans.json"
    traced = _run_job(ws, path, scale.n, seconds / 2, spans_out)
    document = json.loads(spans_out.read_text())
    spans = self_times(document["spans"])
    layers = empty_layers()
    apply_span_layers(layers, spans, document["tallies"])
    passes = traced["passes"]
    layers["matrix.bytes"] = float(passes[0]["matrix_bytes"])
    layers["optimized.pact_eval"] = float(passes[0]["formula_eval"])
    layers["rings.edges"] = float(passes[0]["edges"])
    layers["io.events"] /= len(passes)
    plain_metrics, traced_metrics = summary(plain), summary(traced)
    layers["trace.overhead_frac"] = (traced_metrics["op_p50_ms"]
                                     / plain_metrics["op_p50_ms"] - 1.0)
    top = [s for s in spans if s["parent"] is None]
    layers["trace.coverage_frac"] = (
        sum(s["dur"] for s in top) / sum(p["batch_s"] for p in passes))
    checks, problems = _check(plan, plain)
    more, more_problems = _check(plan, traced)
    problems += more_problems
    detail = {"untraced": plain_metrics, "traced": traced_metrics,
              "layers": layer_table(spans, len(passes)), "problems": problems[:10]}
    return Outcome(layers, checks + more, len(problems), not problems, detail)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
