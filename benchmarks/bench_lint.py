"""reprolint engine cost: cold analysis vs warm per-file cache.

PR 9 added the dataflow layer (per-function CFGs + fixpoint solvers +
three path-sensitive rules) to the per-file pass, which is exactly the
pass the cache exists to amortize.  This benchmark pins both sides of
that bargain over the real package (``src/repro``):

* **cold** — empty cache directory: parse, per-file rules, CFG builds,
  module summaries for every file, then the whole-program pass;
* **warm** — same cache directory again: every per-file entry hits
  (mtime+hash key), so only cache loading and the whole-program pass
  run.  This is the cost of re-running ``repro lint`` on an unchanged
  tree.

The ``lockset`` leg times the guard-inference layer the same way:
``compute_guards`` runs the identical per-file pass (entry-lockset
fixpoint + escape analysis + per-attribute intersection on top), so
its cold/warm pair measures what REP011/REP012 added to the engine
and that the summaries-in-cache amortization still covers it.

Checks: the package lints clean (the CI zero-findings gate, restated
here so a bench run can't silently disagree with it), warm runs see
byte-identical finding counts and analyse zero files (every per-file
record comes from the cache — a deterministic count, where a
wall-clock ratio would be noise), and guard inference names
``_ingest_lock`` for ``DetectionService`` (the ``--guards``
acceptance contract).  ``speedup`` (cold / best warm wall) is
reported, not gated.  ``ops`` reports
files-checked totals — deterministic, so the ``compare --metric ops
--max-regress 0%`` gate pins engine coverage regressions (a skipped
file shows up as a count drop).
"""

import pathlib
import tempfile
import time

from repro.analysis.engine import compute_guards, lint_package
from repro.bench.adapters import bench_main, merge_config

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {"warm_runs": 1}

DEFAULT_CONFIG = {"warm_runs": 3, "lockset_runs": 1}


def timed_lint(cache_dir):
    start = time.perf_counter()
    result = lint_package(cache_dir=cache_dir)
    return time.perf_counter() - start, result


def run(config=None):
    """Harness entrypoint: one cold run, ``warm_runs`` warm runs."""
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    warm_runs = int(cfg["warm_runs"])
    lockset_runs = int(cfg["lockset_runs"])

    series = []
    warm_walls = []
    warm_findings = []
    warm_analyzed = []
    with tempfile.TemporaryDirectory(prefix="reprolint-bench-") as tmp:
        cache_dir = pathlib.Path(tmp)
        cold_wall, cold = timed_lint(cache_dir)
        series.append({
            "mode": "cold",
            "wall_s": cold_wall,
            "files_checked": cold.files_checked,
            "files_analyzed": cold.files_analyzed,
            "findings": len(cold.findings),
            "parse_errors": len(cold.errors),
        })
        for trial in range(warm_runs):
            warm_wall, warm = timed_lint(cache_dir)
            warm_walls.append(warm_wall)
            warm_findings.append(len(warm.findings))
            warm_analyzed.append(warm.files_analyzed)
            series.append({
                "mode": "warm",
                "trial": trial,
                "wall_s": warm_wall,
                "files_checked": warm.files_checked,
                "files_analyzed": warm.files_analyzed,
                "findings": len(warm.findings),
                "parse_errors": len(warm.errors),
            })

    # The lockset leg: guard inference cold (fresh cache — pays the
    # full per-file pass plus the fixpoints) and warm (summaries come
    # from the cache; only the lockset layer itself runs).
    guard_rows = []
    lockset_cold_wall = 0.0
    best_lockset_warm = 0.0
    lockset_warm_walls = []
    if lockset_runs:
        with tempfile.TemporaryDirectory(prefix="reprolint-bench-") as tmp:
            cache_dir = pathlib.Path(tmp)
            start = time.perf_counter()
            guard_rows = compute_guards(cache_dir=cache_dir)
            lockset_cold_wall = time.perf_counter() - start
            series.append({
                "mode": "lockset-cold",
                "wall_s": lockset_cold_wall,
                "guard_rows": len(guard_rows),
            })
            for trial in range(lockset_runs):
                start = time.perf_counter()
                warm_rows = compute_guards(cache_dir=cache_dir)
                wall = time.perf_counter() - start
                lockset_warm_walls.append(wall)
                series.append({
                    "mode": "lockset-warm",
                    "trial": trial,
                    "wall_s": wall,
                    "guard_rows": len(warm_rows),
                })
        best_lockset_warm = min(lockset_warm_walls)

    best_warm = min(warm_walls)
    ingest_guarded = any(
        row.cls == "DetectionService" and row.guards == ("_ingest_lock",)
        for row in guard_rows
    )
    checks = {
        "package_lints_clean": not cold.findings and not cold.errors,
        "warm_findings_match_cold":
            all(n == len(cold.findings) for n in warm_findings),
        "warm_runs_analyse_no_file": not any(warm_analyzed),
        "guards_name_the_ingest_lock":
            ingest_guarded or not lockset_runs,
    }
    return {
        "kind": "engine",
        "title": "reprolint cold vs warm cache over src/repro",
        "series": series,
        "ops": {
            # Deterministic coverage counts (not timings): a file the
            # engine stops visiting shows up as a drop here.  The
            # lockset leg re-walks every file once cold and once per
            # warm run, so lost coverage drops this too.
            "total_operations": cold.files_checked * (1 + warm_runs)
            + (cold.files_checked * (1 + lockset_runs) if lockset_runs
               else 0),
        },
        "cold_wall_s": cold_wall,
        "best_warm_wall_s": best_warm,
        "lockset_cold_wall_s": lockset_cold_wall,
        "best_lockset_warm_wall_s": best_lockset_warm,
        "guard_rows": len(guard_rows),
        "speedup": cold_wall / best_warm if best_warm else 0.0,
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run, SMOKE_CONFIG))
