"""The ``http_ingest`` and ``http_mixed`` workloads.

Both drive a ``repro serve`` child process over keep-alive connections
(one per load thread).  A run has two stages on one server: an open
loop at a fixed request rate, whose latencies are timed from each
request's due time, then a closed loop whose accepted ratings per
second is ``ingest_eps``.  The rating stream is cut into periods; each
period ends with a ``POST /admin/end-period`` barrier, and every
period's served verdicts are checked against the batch detector run on
exactly the ratings the service accepted in that period.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, DefaultDict, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from perfbench import stats
from perfbench.calibrate import at_reference, kernel
from perfbench.common import (
    BATCH,
    THRESHOLD_ARGS,
    THRESHOLDS,
    WORKERS,
    Outcome,
    Pair,
    apply_span_layers,
    as_pairs,
    concat,
    empty_layers,
    layer_table,
    oracle_pairs,
    replay_worker_layers,
)
from perfbench.harness import Client, Op, Server, StageResult, Workspace, run_stage
from perfbench.inputs import Events, Plan, batches, make_plan, period_events, ratings_body
from perfbench.trace import Tracer, by_name, self_times
from repro.service.config import ServiceConfig

QUERY_KINDS = ("suspects", "reputation")
#: Share of a run spent in the open-loop stage; the rest is closed loop.
OPEN_SHARE = 0.75


@dataclass(frozen=True)
class HttpScale:
    """Sizes of one HTTP workload."""

    n: int
    background: int
    pairs: int
    ring_sizes: Tuple[int, ...]
    rotate: int
    process_mode: bool
    #: open-loop request rate (requests/s, all kinds)
    rate: float
    #: read requests (suspects / live reputation) after each POST
    reads_per_post: int = 0
    #: a GET /collusion-graph every this many POSTs (0: never)
    graph_every: int = 0
    #: ratings per POST /ratings
    batch: int = BATCH
    setups: int = 5


SCALES: Dict[str, Dict[str, HttpScale]] = {
    "http_ingest": {
        "full": HttpScale(n=200, background=600, pairs=2, ring_sizes=(),
                          rotate=1, process_mode=True, rate=30.0),
        "tiny": HttpScale(n=60, background=100, pairs=1, ring_sizes=(),
                          rotate=1, process_mode=True, rate=40.0, setups=1),
    },
    "http_mixed": {
        "full": HttpScale(n=2000, background=1000, pairs=40, ring_sizes=(4, 4, 4),
                          rotate=8, process_mode=False, rate=28.0,
                          reads_per_post=1, graph_every=3, batch=400),
        "tiny": HttpScale(n=120, background=100, pairs=2, ring_sizes=(4,),
                          rotate=2, process_mode=False, rate=40.0,
                          reads_per_post=1, graph_every=2, batch=300, setups=1),
    },
}


class Feed:
    """The op stream: each period's POSTs (with reads between them for
    the mixed mix), then its close barrier.  Periods are generated on
    demand from ``(seed, period)``."""

    def __init__(self, scale: HttpScale, plan: Plan, seed: int) -> None:
        self.scale = scale
        self.plan = plan
        self.seed = seed
        self.period = 0
        self.posts = 0
        self.ops: Deque[Op] = deque()
        self.last_kind = "close"
        self.rng = np.random.default_rng([seed, 2])
        self.accepted: DefaultDict[int, List[Events]] = defaultdict(list)

    def fill(self, periods: int) -> None:
        for _ in range(periods):
            self._add_period()

    def _add_period(self) -> None:
        scale = self.scale
        for batch in batches(period_events(self.plan, self.seed, self.period),
                             scale.batch):
            self.ops.append(Op("post", (self.period, batch, ratings_body(batch))))
            self.posts += 1
            for _ in range(scale.reads_per_post):
                if self.rng.random() < 0.5:
                    self.ops.append(Op("suspects", "/suspects"))
                else:
                    node = int(self.rng.integers(0, self.plan.n))
                    self.ops.append(Op("reputation", f"/reputation/{node}?live=1"))
            if scale.graph_every and self.posts % scale.graph_every == 0:
                self.ops.append(Op("graph", "/collusion-graph"))
        self.ops.append(Op("close", self.period, barrier=True))
        self.period += 1

    def next_op(self) -> Optional[Op]:
        if not self.ops:
            self._add_period()
        op = self.ops.popleft()
        self.last_kind = op.kind
        return op

    def close_op(self) -> Optional[Op]:
        """The close of the open period, dropping its unsent requests;
        ``None`` when the last op handed out already closed a period."""
        if self.last_kind == "close":
            return None
        while self.ops[0].kind != "close":
            self.ops.popleft()
        self.last_kind = "close"
        return self.ops.popleft()


class Runner:
    """Executes ops against one server and checks what comes back."""

    def __init__(self, server: Server, feed: Feed) -> None:
        self.feed = feed
        # one connection per load thread, plus one for stage-closing requests
        self.clients = [Client(server.host, server.port) for _ in range(WORKERS + 1)]
        self.server = server
        self.latest: Set[Pair] = set()
        self.verdict_checks = 0
        self.mismatches: List[str] = []
        self.served: Dict[int, Set[Pair]] = {}
        self.pact_evals = 0
        self.graph_edges: List[int] = []
        self._rids = itertools.count(1)

    def execute(self, worker: int, op: Op) -> None:
        client = self.clients[worker]
        op.result = f"r{next(self._rids)}"
        try:
            if op.kind == "post":
                period, batch, body = op.payload
                status, _ = client.request("POST", "/ratings", body, op.result)
                op.ok = status == 202
                if op.ok:
                    self.feed.accepted[period].append(batch)
            elif op.kind == "close":
                status, body = client.request("POST", "/admin/end-period", b"",
                                              op.result)
                op.ok = status == 200
                if op.ok:
                    document = json.loads(body)
                    self.latest = as_pairs(document["pairs"])
                    self.served[op.payload] = self.latest
                    self.pact_evals += int(document["operations"].get("pact_eval", 0))
            else:
                expected = self.latest
                status, body = client.request("GET", op.payload, None, op.result)
                op.ok = status == 200
                if op.ok and op.kind == "suspects":
                    self.verdict_checks += 1
                    if as_pairs(json.loads(body)["pairs"]) != expected:
                        self.mismatches.append(f"GET /suspects disagreed at {op.result}")
                elif op.ok and op.kind == "graph":
                    self.graph_edges.append(len(json.loads(body)["graph"]["edges"]))
        except Exception as exc:  # a failed request is counted, not fatal
            op.ok = False
            op.error = repr(exc)
            self.clients[worker] = Client(self.server.host, self.server.port)

    def stage(self, seconds: float, rate: Optional[float]) -> StageResult:
        """One stage, ended by closing its last period."""
        result = run_stage(self.feed.next_op, self.execute, WORKERS, seconds, rate)
        closing = self.feed.close_op()
        if closing is not None:
            closing.start = closing.due = time.perf_counter()
            self.execute(WORKERS, closing)
            closing.end = time.perf_counter()
            result.ops.append(closing)
            result.ended = closing.end
        return result

    def check_verdicts(self) -> None:
        for period, served in sorted(self.served.items()):
            self.verdict_checks += 1
            expected = oracle_pairs(self.feed.plan.n, concat(self.feed.accepted[period]))
            if served != expected:
                self.mismatches.append(
                    f"period {period}: served {sorted(served)} != batch {sorted(expected)}")

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _serve_args(scale: HttpScale, ws: Workspace) -> List[str]:
    args = ["--n", str(scale.n)] + THRESHOLD_ARGS
    if scale.process_mode:
        args += ["--workers", str(WORKERS), "--data-dir", str(ws.mkdtemp("data-"))]
    else:
        args += ["--shards", str(WORKERS)]
    return args


def _setup(scale: HttpScale, seed: int, ws: Workspace, open_seconds: float,
           spans_out: Optional[pathlib.Path]) -> Tuple[float, Server, Feed]:
    """Inputs for the open-loop stage generated, server and workers up."""
    started = time.perf_counter()
    plan = make_plan(seed, scale.n, scale.background, scale.pairs,
                     scale.ring_sizes, rotate=scale.rotate)
    feed = Feed(scale, plan, seed)
    while len(feed.ops) < scale.rate * open_seconds:
        feed.fill(1)
    server = Server(ws, _serve_args(scale, ws), spans_out=spans_out)
    client = Client(server.host, server.port)
    try:
        status, _ = client.request("GET", "/healthz")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return time.perf_counter() - started, server, feed


def _pass(scale: HttpScale, seed: int, seconds: float, ws: Workspace,
          spans_out: Optional[pathlib.Path] = None, setups: int = 1
          ) -> Dict[str, Any]:
    """Set up (``setups`` times, keeping the last), run both stages."""
    open_seconds = seconds * OPEN_SHARE
    setup_times = []
    kernel_s = [kernel()]
    for attempt in range(setups):
        elapsed, server, feed = _setup(scale, seed, ws, open_seconds,
                                       spans_out if attempt == setups - 1 else None)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            server.stop()
            ws.servers.remove(server)
        kernel_s.append(kernel())
    # Set-up (interpreter start, imports, worker start) is CPU work: its
    # times are at the reference host speed (calibrate.py).  The stages'
    # times are not scaled; the network stall dominates them.
    setup_times = at_reference(setup_times, kernel_s)
    runner = Runner(server, feed)
    try:
        open_stage = runner.stage(open_seconds, scale.rate)
        closed_stage = runner.stage(seconds - open_seconds, None)
        rss = server.rss_mb()
        status, health = runner.clients[-1].request("GET", "/healthz")
        restarts = 0
        if status == 200:
            restarts = sum(int(w.get("restarts", 0))
                           for w in json.loads(health).get("workers", []))
    finally:
        runner.close()
        server.stop()
        ws.servers.remove(server)
    runner.check_verdicts()
    return {"setup_times": setup_times, "open": open_stage, "closed": closed_stage,
            "runner": runner, "rss": rss, "restarts": restarts}


def _accepted_events(stage: StageResult) -> int:
    return sum(int(op.payload[1][0].size) for op in stage.ops
               if op.kind == "post" and op.ok)


def _samples(run: Dict[str, Any]) -> Dict[str, List[float]]:
    open_stage: StageResult = run["open"]
    closed_stage: StageResult = run["closed"]
    return {
        "post": open_stage.latencies_ms(["post"]),
        "query": open_stage.latencies_ms(QUERY_KINDS),
        "graph": open_stage.latencies_ms(["graph"]) + closed_stage.latencies_ms(["graph"]),
        # Period closes are timed in the open-loop stage, at the fixed
        # load every latency of this workload is reported at.
        "close": [1000.0 * (op.end - op.start) for op in open_stage.ops
                  if op.kind == "close" and op.ok],
    }


def _metrics(run: Dict[str, Any], primary: str) -> Dict[str, float]:
    samples = _samples(run)
    closed_stage: StageResult = run["closed"]
    return {
        # the median of a few set-ups, as the benchmark's set-up time is defined
        "setup_s": statistics.median(run["setup_times"]),
        "ingest_eps": (_accepted_events(closed_stage)
                       / (closed_stage.ended - closed_stage.started)),
        "op_p50_ms": stats.median(samples[primary]),
        "close_p50_ms": stats.median(samples["close"]),
        "peak_rss_mb": run["rss"],
    }


def _detail(run: Dict[str, Any]) -> Dict[str, Any]:
    open_stage: StageResult = run["open"]
    closed_stage: StageResult = run["closed"]
    runner: Runner = run["runner"]
    samples = _samples(run)
    return {
        "post_ms": stats.summarize(samples["post"]),
        "query_ms": stats.summarize(samples["query"]),
        "graph_ms": stats.summarize(samples["graph"]),
        "close_ms": stats.summarize(samples["close"]),
        "close_ms_closed_loop": stats.summarize(
            [1000.0 * (op.end - op.start) for op in closed_stage.ops
             if op.kind == "close" and op.ok]),
        "open_loop_lateness_ms": stats.summarize(open_stage.lateness_ms()),
        "open_loop_requests": len(open_stage.ops),
        "closed_loop_requests": len(closed_stage.ops),
        "closed_loop_accepted_events": _accepted_events(closed_stage),
        "closed_loop_seconds": closed_stage.ended - closed_stage.started,
        "setup_times_s": run["setup_times"],
        "periods_checked": len(runner.served),
        "graph_edges_mean": stats.mean(runner.graph_edges),
        "mismatches": runner.mismatches[:10],
        "request_errors": [op.error for op in open_stage.ops + closed_stage.ops
                           if op.error][:10],
        "worker_restarts": run["restarts"],
    }


def _counts(run: Dict[str, Any]) -> Tuple[int, int]:
    runner: Runner = run["runner"]
    ops = run["open"].ops + run["closed"].ops
    failed = sum(1 for op in ops if not op.ok) + len(runner.mismatches)
    return len(ops) + runner.verdict_checks, failed


def _http_layers(run: Dict[str, Any], spans_path: pathlib.Path, scale: HttpScale,
                 ws: Workspace) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of a traced pass: server spans joined to the
    client's requests by request id, plus the replayed worker layers."""
    document = json.loads(spans_path.read_text())
    spans = self_times(document["spans"])
    tallies = dict(document["tallies"])
    named = by_name(spans)
    runner: Runner = run["runner"]
    ops = run["open"].ops + run["closed"].ops
    handlers = {s["rid"]: s for s in named.get("http_api.handler", []) if s["rid"]}
    children: DefaultDict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    layers = empty_layers()
    waits, covers, decodes = [], [], []
    per_request: Dict[str, List[float]] = defaultdict(list)
    for op in ops:
        handler = handlers.get(op.result)
        if handler is None:
            continue
        rtt = op.end - op.start
        waits.append(rtt - handler["dur"])
        covers.append(handler["dur"] / rtt if rtt > 0 else 0.0)
        if op.kind == "post":
            decodes.append(sum(c["dur"] for c in children[handler["id"]]
                               if c["name"] == "http_api.decode"))
            per_request["client_ms"].append(1000.0 * rtt)
            per_request["handler_ms"].append(1000.0 * handler["dur"])
    handler_spans = named.get("http_api.handler", [])
    layers["http_api.requests"] = float(len(handler_spans))
    layers["http_api.busy_ms"] = 1000.0 * stats.mean([s["dur"] for s in handler_spans])
    layers["http_api.decode_ms"] = 1000.0 * stats.mean(decodes)
    layers["http_api.wait_ms"] = 1000.0 * stats.mean(waits)
    layers["http_api.failed"] = float(sum(1 for op in ops if not op.ok))
    layers["trace.coverage_frac"] = stats.mean(covers)
    apply_span_layers(layers, spans, tallies)
    layers["online.pairs_evaluated"] = float(runner.pact_evals)
    layers["rings.edges"] = stats.mean(runner.graph_edges)
    layers["worker.restarts"] = float(run["restarts"])

    detail: Dict[str, Any] = {"server_layers": layer_table(spans, len(handler_spans))}
    # POST breakdown: where one rating batch's client latency goes.
    post_rids = {op.result for op in ops if op.kind == "post"}
    post_spans = [s for s in spans if s["rid"] in post_rids]
    detail["post_layers"] = layer_table(post_spans, len(post_rids))
    detail["post_client_ms_mean"] = stats.mean(per_request["client_ms"])
    detail["post_wait_ms_mean"] = (stats.mean(per_request["client_ms"])
                                   - stats.mean(per_request["handler_ms"]))

    if scale.process_mode:
        periods = [runner.feed.accepted[p] for p in sorted(runner.served)]
        tracer = Tracer()
        config = ServiceConfig(n=scale.n, num_shards=WORKERS,
                               thresholds=THRESHOLDS)
        replayed = replay_worker_layers(tracer, config, periods, ws.mkdtemp("replay-"))
        worker_spans = self_times(tracer.spans)
        apply_span_layers(layers, worker_spans, {k: list(v) for k, v in tracer.tallies.items()})
        layers["wal.bytes"] = float(replayed["wal_bytes"])
        layers["snapshot.bytes"] = float(replayed["snapshot_bytes"])
        detail["worker_layers_replayed"] = layer_table(worker_spans, len(post_rids))
        served = [runner.served[p] for p in sorted(runner.served)]
        runner.verdict_checks += 1
        if replayed["verdicts"] != served:
            runner.mismatches.append("replayed worker verdicts differ from the served ones")
    return layers, detail


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        ws: Workspace) -> Outcome:
    scale = SCALES[workload][size]
    primary = "post" if workload == "http_ingest" else "query"
    if not trace:
        result = _pass(scale, seed, seconds, ws, setups=scale.setups)
        metrics = _metrics(result, primary)
        attempted, failed = _counts(result)
        correct = not result["runner"].mismatches and bool(result["runner"].served)
        return Outcome(metrics, attempted, failed, correct, _detail(result))

    # Traced run: an untraced pass, then a traced pass of equal length;
    # the difference of their op_p50_ms is the tracing overhead.
    plain = _pass(scale, seed, seconds / 2, ws)
    spans_out = ws.path / "spans.json"
    traced = _pass(scale, seed, seconds / 2, ws, spans_out=spans_out)
    layers, layer_detail = _http_layers(traced, spans_out, scale, ws)
    plain_p50 = stats.median(_samples(plain)[primary])
    traced_p50 = stats.median(_samples(traced)[primary])
    layers["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    attempted = _counts(plain)[0] + _counts(traced)[0]
    failed = _counts(plain)[1] + _counts(traced)[1]
    correct = not (plain["runner"].mismatches or traced["runner"].mismatches)
    detail = {"untraced_op_p50_ms": plain_p50, "traced_op_p50_ms": traced_p50,
              "untraced": _detail(plain), "traced": _detail(traced), **layer_detail}
    return Outcome(layers, attempted, failed, correct, detail)
