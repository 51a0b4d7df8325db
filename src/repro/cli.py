"""Command-line interface: regenerate figures and run ad-hoc simulations.

Usage
-----
``python -m repro list``
    List every regenerable paper element.
``python -m repro figure fig5 fig12``
    Regenerate specific figures (or ``all``) and print their series.
``python -m repro simulate --colluder-b 0.2 --colluders 8 --detector optimized``
    Run one simulation with chosen parameters and print a summary.
``python -m repro serve --n 500 --shards 4 --data-dir ./svc``
    Run the sharded online detection service with its HTTP query API
    (``--workers N`` runs N shard worker processes instead of
    threads).
``python -m repro replay --data-dir ./svc --verify``
    Recover service state offline from snapshot + WAL and audit it.
``python -m repro rings --data-dir ./svc --edge-floor 0.5``
    Recover a served state offline and mine the suspect graph for
    collusion rings (live instances serve ``GET /collusion-graph``).
``python -m repro bench list | run --tier smoke | compare --baseline ...``
    The unified benchmark harness: run registered benches into
    ``BENCH_<name>.json`` and gate changes against a baseline
    (see docs/BENCHMARKS.md).
``python -m repro lint``
    The reprolint invariant linter: one serial pass of eight rules
    over ``src/repro``; any finding exits 1 (see docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence, cast

from repro import experiments
from repro._version import __version__

__all__ = ["main", "FIGURES"]

#: Registry of regenerable elements: id -> zero-arg callable.
FIGURES: Dict[str, Callable] = {
    "fig1a": experiments.figure1a_rating_vs_reputation,
    "fig1b": experiments.figure1b_rater_patterns,
    "fig1c": experiments.figure1c_rating_frequency,
    "fig1d": experiments.figure1d_interaction_graph,
    "fig4": experiments.figure4_reputation_surface,
    "fig5": experiments.figure5_eigentrust_b06,
    "fig6": experiments.figure6_eigentrust_b02,
    "fig7": experiments.figure7_compromised_pretrusted,
    "fig8": experiments.figure8_detectors_standalone,
    "fig9": experiments.figure9_et_optimized_b06,
    "fig10": experiments.figure10_et_optimized_b02,
    "fig11": experiments.figure11_et_optimized_compromised,
    "fig12": experiments.figure12_requests_to_colluders,
    "fig13": experiments.figure13_operation_cost,
    "prop4.1": experiments.prop41_basic_scaling,
    "prop4.2": experiments.prop42_optimized_scaling,
    "sec3": experiments.sec3_suspicious_stats,
    "sec4": experiments.sec4_decentralized_detection,
    "sec4b": experiments.sec4b_distributed_aggregation,
    "ablation-gate": experiments.ablation_detector_gate,
    "ablation-exclusion": experiments.ablation_booster_exclusion,
    "ablation-alpha": experiments.ablation_pretrust_weight,
    "ablation-tn": experiments.ablation_frequency_threshold,
    "ablation-rate": experiments.ablation_collusion_rate,
    "ablation-selector": experiments.ablation_selection_policy,
    "ablation-response": experiments.ablation_response_policy,
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Regenerable paper elements:")
    for fig_id, fn in FIGURES.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {fig_id:8s} {doc}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    ids: List[str] = args.ids
    if ids == ["all"]:
        ids = list(FIGURES)
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        print(f"unknown figure id(s): {', '.join(unknown)} "
              f"(try 'python -m repro list')", file=sys.stderr)
        return 2
    failed = []
    for fig_id in ids:
        result = FIGURES[fig_id]()
        print(result.render())
        print()
        if not result.all_checks_pass():
            failed.append(fig_id)
    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.thresholds import DetectionThresholds
    from repro.experiments.config import default_detector, default_eigentrust
    from repro.p2p.metrics import SimulationMetrics
    from repro.p2p.simulator import Simulation, SimulationConfig

    attack = getattr(args, "attack", "pairs")
    config = SimulationConfig(
        n_nodes=args.nodes,
        sim_cycles=args.cycles,
        good_behavior_colluder=args.colluder_b,
        seed=args.seed,
    ).with_colluders(args.colluders)
    if attack == "compromised":
        from dataclasses import replace

        config = replace(
            config,
            compromised_pairs=((1, config.colluder_ids[0]),),
        )

    extra_strategies = []
    bad_service_nodes = []
    if attack == "sybil":
        from repro.p2p.attacks import SybilRingStrategy

        ring = list(range(config.colluder_ids[-1] + 1,
                          config.colluder_ids[-1] + 6))
        extra_strategies.append(SybilRingStrategy(ring, rate_count=10))
        bad_service_nodes = ring
    elif attack == "slander":
        from repro.p2p.attacks import SlanderStrategy

        base = config.colluder_ids[-1] + 1
        extra_strategies.append(
            SlanderStrategy([(base, base + 10)], rate_count=10)
        )

    detector = None
    if args.detector != "none":
        detector = default_detector(
            args.detector, DetectionThresholds.paper_simulation()
        )

    if getattr(args, "compare", False) and detector is not None:
        baseline = Simulation(
            config, reputation_system=default_eigentrust(config),
            extra_strategies=extra_strategies or None,
        ).run()
        defended = Simulation(
            config, reputation_system=default_eigentrust(config),
            detector=detector, extra_strategies=extra_strategies or None,
        ).run()
        b_metrics = SimulationMetrics(baseline)
        d_metrics = SimulationMetrics(defended)
        print(f"nodes={config.n_nodes} colluders={len(config.colluder_ids)} "
              f"B={args.colluder_b} seed={args.seed}")
        print(f"{'metric':32s} {'baseline':>12s} {'+detector':>12s}")
        rows = [
            ("requests to colluders",
             baseline.requests_to_colluders, defended.requests_to_colluders),
            ("colluder request share",
             f"{baseline.colluder_request_share:.3f}",
             f"{defended.colluder_request_share:.3f}"),
            ("inauthentic downloads",
             baseline.inauthentic_downloads, defended.inauthentic_downloads),
            ("mean colluder reputation",
             f"{b_metrics.mean_reputation_by_kind()['colluder']:.5f}",
             f"{d_metrics.mean_reputation_by_kind()['colluder']:.5f}"),
            ("mean normal reputation",
             f"{b_metrics.mean_reputation_by_kind()['normal']:.5f}",
             f"{d_metrics.mean_reputation_by_kind()['normal']:.5f}"),
        ]
        for name, left, right in rows:
            print(f"{name:32s} {str(left):>12s} {str(right):>12s}")
        print(f"detected colluders: {sorted(defended.detected_colluders)}")
        return 0

    sim = Simulation(
        config,
        reputation_system=default_eigentrust(config),
        detector=detector,
        extra_strategies=extra_strategies or None,
    )
    for node in bad_service_nodes:
        sim.behavior.set_good_behavior(node, args.colluder_b)
    result = sim.run()
    metrics = SimulationMetrics(result)

    print(f"nodes={config.n_nodes} colluders={len(config.colluder_ids)} "
          f"B={args.colluder_b} detector={args.detector} seed={args.seed}")
    print(f"requests: {result.total_requests:,} "
          f"(to colluders: {result.colluder_request_share:.1%})")
    print(f"authentic downloads: "
          f"{result.authentic_downloads / max(result.total_requests, 1):.1%}")
    for kind, mean in metrics.mean_reputation_by_kind().items():
        print(f"mean reputation [{kind}]: {mean:.5f}")
    if detector is not None:
        precision, recall = metrics.detection_scores()
        print(f"detected colluders: {sorted(result.detected_colluders)}")
        print(f"precision={precision:.2f} recall={recall:.2f}")
        print(f"detector operations: {sum(result.detector_ops.values()):,}")
    print(f"reputation operations: {sum(result.reputation_ops.values()):,}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    ids = None if args.ids in (None, [], ["all"]) else args.ids
    results = write_report(FIGURES, args.out, ids)
    failed = [r.figure_id for r in results if not r.all_checks_pass()]
    print(f"wrote {args.out} ({len(results)} elements)")
    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _service_config(args: argparse.Namespace):
    from repro.core.thresholds import DetectionThresholds
    from repro.service import ServiceConfig

    thresholds = DetectionThresholds(
        t_r=args.t_r, t_a=args.t_a, t_b=args.t_b, t_n=args.t_n
    )
    return ServiceConfig(
        n=args.n,
        num_shards=args.shards,
        thresholds=thresholds,
        queue_capacity=args.queue_capacity,
        data_dir=args.data_dir,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 8642),
        matrix_backend=getattr(args, "matrix_backend", None),
    )


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=500,
                        help="universe size (node ids 0..n-1)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--data-dir", default=None,
                        help="WAL + snapshot directory (omit: ephemeral)")
    parser.add_argument("--queue-capacity", type=int, default=1024)
    parser.add_argument("--snapshot-every", type=int, default=0,
                        help="mid-epoch snapshot cadence in events (0: off)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every WAL append before acknowledging")
    parser.add_argument("--t-r", type=float, default=1.0)
    parser.add_argument("--t-a", type=float, default=0.9)
    parser.add_argument("--t-b", type=float, default=0.7)
    parser.add_argument("--t-n", type=int, default=20)
    parser.add_argument("--matrix-backend", choices=["mmap"],
                        default=None, dest="matrix_backend",
                        help="'mmap' switches durable shard workers to "
                             "binary state images mapped back in O(1) on "
                             "restart (default: JSON snapshots)")


def _build_service(args: argparse.Namespace):
    """Thread shards by default; --workers N runs one process per shard."""
    from dataclasses import replace

    from repro.service import DetectionService, ProcessDetectionService

    config = _service_config(args)
    if args.workers:
        # One worker process per shard: --workers overrides --shards so
        # the two knobs never disagree about the partition count.
        return ProcessDetectionService(
            replace(config, num_shards=args.workers))
    return DetectionService(config)


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.errors import ReproError
    from repro.service import ServiceHTTPServer

    try:
        service = _build_service(args).start()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    http = ServiceHTTPServer(service)
    host, port = http.address
    mode = service.status()["mode"]
    print(f"serving on http://{host}:{port} "
          f"(n={args.n}, shards={service.config.num_shards}, "
          f"mode={mode}, durable={service.config.durable})", flush=True)
    if service.epoch or service.total_events:
        print(f"recovered epoch={service.epoch} "
              f"events={service.total_events}", flush=True)

    stop_flag = threading.Event()
    auto_closer: Optional[threading.Thread] = None
    if args.auto_period > 0:
        def _auto_close() -> None:
            while not stop_flag.wait(0.05):
                if service.epoch_events >= args.auto_period:
                    result = service.end_period()
                    print(f"epoch {result.epoch} closed: "
                          f"{len(result.report)} pair(s) over "
                          f"{result.events} events", flush=True)
        auto_closer = threading.Thread(target=_auto_close, daemon=True,
                                       name="repro-auto-period")
        auto_closer.start()
    try:
        http.serve_forever()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        stop_flag.set()
        # A close already past its check must finish before the service
        # stops under it.
        if auto_closer is not None:
            auto_closer.join()
        http.shutdown()
        service.stop()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import DetectionService

    config = _service_config(args)
    if not config.durable:
        print("replay requires --data-dir", file=sys.stderr)
        return 2
    try:
        service = DetectionService(config).start()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = service.status()
        print(f"recovered epoch={status['epoch']} "
              f"epoch_events={status['epoch_events']} "
              f"total_events={status['total_events']} "
              f"shards={status['shards']} mode={status['mode']}")
        recovered = service.metrics.ops.get("recovered_events")
        print(f"replayed WAL tail: {recovered} event(s)")
        suspects = service.suspects()
        print(f"last published epoch {suspects['epoch']}: "
              f"pairs={suspects['pairs']}")
        peek = service.peek()
        print(f"open-epoch peek: {len(peek.report)} pair(s) "
              f"{sorted(peek.report.pair_set())}")
        if args.verify:
            from repro.core.optimized import OptimizedCollusionDetector
            from repro.ratings.matrix import RatingMatrix

            events = service.epoch_wal_events()
            matrix = RatingMatrix(config.n)
            matrix.add_events([e.rater for e in events],
                              [e.target for e in events],
                              [e.value for e in events])
            batch = OptimizedCollusionDetector(config.thresholds).detect(matrix)
            match = batch.pair_set() == peek.report.pair_set()
            print(f"batch cross-check: {sorted(batch.pair_set())} "
                  f"-> {'MATCH' if match else 'MISMATCH'}")
            if not match:
                return 1
        if args.end_period:
            result = service.end_period()
            print(f"epoch {result.epoch} closed: "
                  f"pairs={[[p.low, p.high] for p in result.report]}")
    finally:
        service.stop(snapshot=args.end_period)
    return 0


def _cmd_rings(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.service import DetectionService

    config = _service_config(args)
    if not config.durable:
        print("rings requires --data-dir (recover a served state offline); "
              "a live instance serves GET /collusion-graph instead",
              file=sys.stderr)
        return 2
    try:
        service = DetectionService(config).start()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        document = service.collusion_graph(edge_floor=args.edge_floor)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        service.stop(snapshot=False)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    graph = cast("Dict[str, object]", document["graph"])
    nodes = cast("List[object]", graph["nodes"])
    edges = cast("List[Dict[str, object]]", graph["edges"])
    groups = cast("List[Dict[str, object]]", document["groups"])
    print(f"epoch {document['epoch']}: {document['events']} open-epoch "
          f"event(s), {len(nodes)} suspect node(s), "
          f"{len(edges)} candidate edge(s) (floor={args.edge_floor})")
    for edge in edges:
        mark = "*" if edge["screened"] else " "
        print(f"  {mark} {edge['rater']:>5} -> {edge['target']:>5}  "
              f"freq={edge['frequency']:<5} pos={edge['positive']:<5} "
              f"band={edge['band_score']:.3f}")
    print(f"pair verdicts: {document['pairs']}")
    if groups:
        print("detected groups:")
        for group in groups:
            print(f"  [{group['kind']}] members={group['members']} "
                  f"score={group['score']:.3f} "
                  f"internal={group['internal_positive']}/"
                  f"{group['internal_frequency']} "
                  f"external={group['external_positive']}/"
                  f"{group['external_frequency']}")
    else:
        print("detected groups: none")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import discover
    from repro.errors import BenchError

    try:
        specs = discover(bench_dir=args.bench_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(specs)} registered benchmarks "
          f"(smoke tier marked with *):")
    for spec in specs:
        marker = "*" if "smoke" in spec.tiers else " "
        print(f"  {marker} {spec.name:34s} {spec.description}")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    import pathlib

    from repro.bench import discover, render_summary, run_suite
    from repro.errors import BenchError

    try:
        specs = discover(bench_dir=args.bench_dir,
                         tier=None if args.names else args.tier,
                         names=args.names or None)
        out_dir = None if args.no_write else pathlib.Path(args.out_dir)
        docs = run_suite(
            specs, tier=args.tier, trials=args.trials,
            out_dir=out_dir, repo_dir=pathlib.Path(args.out_dir),
            progress=print,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(render_summary(docs))
    failed = sorted(
        name for name, doc in docs.items()
        if doc["checks"] and not all(doc["checks"].values())
    )
    if failed:
        print(f"benchmark checks FAILED for: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import pathlib

    from repro.bench import (compare_result_sets, load_result_set,
                             parse_allowance)
    from repro.errors import BenchError

    try:
        allowance = parse_allowance(args.max_regress)
        baseline = load_result_set(pathlib.Path(args.baseline))
        current = load_result_set(pathlib.Path(args.current))
        report = compare_result_sets(baseline, current,
                                     allowance=allowance,
                                     metric=args.metric)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _add_bench_parser(sub) -> None:
    p_bench = sub.add_parser(
        "bench", help="unified benchmark harness with perf-regression gate"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_blist = bench_sub.add_parser("list", help="list registered benchmarks")
    p_blist.add_argument("--bench-dir", default=None,
                         help="benchmarks/ directory (default: autodetect)")
    p_blist.set_defaults(func=_cmd_bench_list)

    p_brun = bench_sub.add_parser(
        "run", help="run benchmarks and write BENCH_<name>.json"
    )
    p_brun.add_argument("names", nargs="*",
                        help="benchmark names (default: the whole --tier)")
    p_brun.add_argument("--tier", choices=["smoke", "full"], default="smoke",
                        help="suite tier when no names are given; also "
                             "selects the per-bench config (smoke shrinks "
                             "the scaling workloads)")
    p_brun.add_argument("--trials", type=int, default=3,
                        help="timed repetitions per benchmark")
    p_brun.add_argument("--out-dir", default=".",
                        help="where BENCH_<name>.json lands "
                             "(default: current directory)")
    p_brun.add_argument("--no-write", action="store_true",
                        help="run and summarize without writing files")
    p_brun.add_argument("--bench-dir", default=None,
                        help="benchmarks/ directory (default: autodetect)")
    p_brun.set_defaults(func=_cmd_bench_run)

    p_bcmp = bench_sub.add_parser(
        "compare", help="gate current results against a baseline"
    )
    p_bcmp.add_argument("--baseline", required=True,
                        help="baseline BENCH_*.json file or directory")
    p_bcmp.add_argument("--current", default=".",
                        help="current BENCH_*.json file or directory "
                             "(default: current directory)")
    p_bcmp.add_argument("--max-regress", default="20%",
                        help="allowed regression, e.g. '20%%' (default)")
    p_bcmp.add_argument("--metric", choices=["wall", "ops"], default="wall",
                        help="wall-clock mean (noisy) or deterministic "
                             "operation counts")
    p_bcmp.set_defaults(func=_cmd_bench_compare)


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so that no other command loads the linter.
    from repro.analysis.cli import run_lint

    return run_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Collusion Detection in Reputation "
                     "Systems for Peer-to-Peer Networks' (ICPP 2012)"),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list regenerable paper elements")
    p_list.set_defaults(func=_cmd_list)

    p_fig = sub.add_parser("figure", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="+",
                       help="figure ids (e.g. fig5 fig12) or 'all'")
    p_fig.set_defaults(func=_cmd_figure)

    p_rep = sub.add_parser(
        "report", help="regenerate every figure into one markdown report"
    )
    p_rep.add_argument("--out", default="REPORT.md")
    p_rep.add_argument("ids", nargs="*",
                       help="optional subset of figure ids (default: all)")
    p_rep.set_defaults(func=_cmd_report)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--nodes", type=int, default=200)
    p_sim.add_argument("--cycles", type=int, default=20)
    p_sim.add_argument("--colluders", type=int, default=8)
    p_sim.add_argument("--colluder-b", type=float, default=0.2,
                       help="colluders' good-behavior probability B")
    p_sim.add_argument("--detector", choices=["none", "basic", "optimized"],
                       default="optimized")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--compare", action="store_true",
                       help="run baseline and defended side by side")
    p_sim.add_argument("--attack",
                       choices=["pairs", "compromised", "sybil", "slander"],
                       default="pairs",
                       help="threat model layered on top of pair collusion")
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve", help="run the sharded online detection service"
    )
    _add_service_options(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="HTTP port (0: pick a free one)")
    p_serve.add_argument("--auto-period", type=int, default=0,
                         help="close the epoch every N accepted events "
                              "(0: only via POST /admin/end-period)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="run N shard worker processes instead of "
                              "in-process threads (overrides --shards; "
                              "0: thread mode)")
    p_serve.set_defaults(func=_cmd_serve)

    p_replay = sub.add_parser(
        "replay",
        help="recover service state offline from snapshot + WAL",
    )
    _add_service_options(p_replay)
    p_replay.add_argument("--verify", action="store_true",
                          help="cross-check the open epoch against the "
                               "batch detector on the WAL-rebuilt matrix")
    p_replay.add_argument("--end-period", action="store_true",
                          help="close the open epoch after recovery")
    p_replay.set_defaults(func=_cmd_replay)

    p_rings = sub.add_parser(
        "rings",
        help="recover a served state offline and mine the suspect graph "
             "for collusion rings",
    )
    _add_service_options(p_rings)
    p_rings.add_argument("--edge-floor", type=float, default=0.5,
                         help="candidate-edge admission threshold as a "
                              "fraction of T_N (default 0.5)")
    p_rings.add_argument("--json", action="store_true",
                         help="print the full /collusion-graph document")
    p_rings.set_defaults(func=_cmd_rings)

    _add_bench_parser(sub)

    p_lint = sub.add_parser(
        "lint", help="run the reprolint invariant linter over src/repro"
    )
    p_lint.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default: text)")
    p_lint.add_argument("--rules", default="",
                        help="comma-separated rule ids to run "
                             "(default: every registered rule)")
    p_lint.add_argument("--root", default=None,
                        help="package directory to lint "
                             "(default: the installed repro package)")
    p_lint.add_argument("--guards", action="store_true",
                        help="print the inferred guarded-by table "
                             "(attribute -> protecting lock -> access "
                             "sites) instead of findings")
    p_lint.add_argument("--explain", action="store_true",
                        help="describe each rule's invariant and exit")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 0
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
