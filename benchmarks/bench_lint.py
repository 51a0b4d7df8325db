"""reprolint engine cost: one serial lint and one guard inference.

``repro lint`` is one serial, in-process pass with nothing cached
between runs, so every run costs what CI pays on a fresh checkout.
This benchmark times that pass over the real package (``src/repro``):

* **lint** — parse, per-file rules, CFG builds, module summaries for
  every file, then the whole-program pass;
* **guards** — ``compute_guards``, the ``repro lint --guards`` table:
  the same per-file summaries without the rules, then the entry-lockset
  fixpoint, escape analysis and per-attribute lockset intersection.

Checks: the package lints clean (the CI zero-findings gate, restated
here so a bench run can't silently disagree with it), and guard
inference names ``_ingest_lock`` for ``DetectionService`` (the
``--guards`` acceptance contract).  Wall times are reported, not
gated.  ``ops`` counts the files the lint checked plus the guarded-by
rows inferred — deterministic, so the ``compare --metric ops
--max-regress 0%`` gate pins engine coverage: a file the engine skips,
or a service class the escape analysis loses, changes the count.
"""

import time

from repro.analysis.engine import compute_guards, lint_package
from repro.bench.adapters import bench_main, merge_config

#: Fast-CI tier membership (docs/BENCHMARKS.md); the workload is the
#: package itself, so there is nothing to shrink.
TIERS = ("smoke", "full")

DEFAULT_CONFIG = {}


def run(config=None):
    """Harness entrypoint: one timed lint, one timed guard inference."""
    merge_config(DEFAULT_CONFIG, config, allowed=frozenset(DEFAULT_CONFIG))

    start = time.perf_counter()
    result = lint_package()
    lint_wall = time.perf_counter() - start

    start = time.perf_counter()
    guard_rows = compute_guards()
    guards_wall = time.perf_counter() - start

    checks = {
        "package_lints_clean": not result.findings and not result.errors,
        "guards_name_the_ingest_lock": any(
            row.cls == "DetectionService" and row.guards == ("_ingest_lock",)
            for row in guard_rows
        ),
    }
    return {
        "kind": "engine",
        "title": "reprolint serial pass over src/repro",
        "series": [
            {
                "mode": "lint",
                "wall_s": lint_wall,
                "files_checked": result.files_checked,
                "findings": len(result.findings),
                "parse_errors": len(result.errors),
            },
            {
                "mode": "guards",
                "wall_s": guards_wall,
                "guard_rows": len(guard_rows),
            },
        ],
        "ops": {
            "total_operations": result.files_checked + len(guard_rows),
        },
        "lint_wall_s": lint_wall,
        "guards_wall_s": guards_wall,
        "guard_rows": len(guard_rows),
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
