"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http_ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a traced run.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a detail report (sample counts, percentiles, layer
tables) goes to ``.perfbench_out/`` and a summary to standard error.
Each workload runs in its own process, so one that fails loses no other
workload's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import threading
import time
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Every run ends well inside the 180 s a run may take.
WALL_BUDGET_S = 170.0
#: Set before numpy loads, in this process and every process a run
#: starts: one BLAS thread per process (the service, its workers and
#: the load generator already fill the host's cores), and no
#: transparent huge pages for numpy arrays, whose supply depends on the
#: host's memory, not on the program, and moves the resident set.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is the self-test scale")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/ - run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    from perfbench import batch, crash, http_load
    from perfbench.common import write_report
    from perfbench.harness import OUT_ROOT, Workspace, kill_children

    ws = Workspace()

    def expire() -> None:
        print(f"perfbench: run exceeded {WALL_BUDGET_S:.0f} s, aborting", file=sys.stderr)
        ws.close()
        kill_children()
        os._exit(3)
    watchdog = threading.Timer(WALL_BUDGET_S, expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.workload.startswith("http_"):
            outcome = http_load.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.size, ws)
        elif args.workload == "batch_trace":
            outcome = batch.run(args.seed, args.seconds, bool(args.trace), args.size, ws)
        else:
            outcome = crash.run(args.seed, args.seconds, bool(args.trace), args.size, ws)
    finally:
        ws.close()
        kill_children()
        watchdog.cancel()
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_report(out, {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "metrics": outcome.metrics, "detail": outcome.report,
                       "attempted": outcome.attempted, "failed": outcome.failed,
                       "correct": outcome.correct})
    for name, value in metrics.items():
        print(f"  {name:28s} {value['value']:14.4f} {value['unit']}", file=sys.stderr)
    print(json.dumps({"correct": bool(outcome.correct),
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    os.environ.update(PINNED_ENV)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        return run_one(args)
    except Exception as exc:  # report, exit non-zero, print no result line
        print(f"perfbench: {args.workload} failed after "
              f"{time.perf_counter() - started:.1f} s: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
