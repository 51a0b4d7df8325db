"""``repro serve`` with the benchmark's span recorder wrapped around it.

Usage: ``python perfbench/traced_serve.py --spans-out FILE serve ...``
(the arguments after ``--spans-out FILE`` are passed to ``repro``
unchanged).  Spans are written to ``FILE`` when the server exits.
Worker processes forked by the process-per-shard service inherit the
wrappers, but their spans stay in the worker: the benchmark times the
worker-side layers by replaying the same sub-batches in its own process.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Any, Callable

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.trace import Tracer  # noqa: E402


def instrument(tracer: Tracer) -> None:
    """Wrap the service's public layer boundaries."""
    from repro.core.online import OnlineCollusionDetector
    from repro.rings.detect import RingDetector
    from repro.rings.graph import SuspectGraph
    from repro.service import coordinator, http_api, process
    from repro.service.shard import ShardWorker
    from repro.service.worker import ProcessShardWorker

    def handler(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(self: Any) -> Any:
            tracer.set_request(self.headers.get("X-Request-Id") or None)
            try:
                return tracer.record("http_api.handler", original, self)
            finally:
                tracer.set_request(None)
        return traced

    for verb in ("do_GET", "do_POST"):
        setattr(http_api._Handler, verb, handler(getattr(http_api._Handler, verb)))
    tracer.wrap(http_api, "decode_jsonl", "http_api.decode")
    for name in ("submit", "end_period", "collusion_graph", "reputation_of",
                 "suspects"):
        tracer.wrap(coordinator.DetectionService, name, f"coordinator.{name}")
        tracer.wrap(process.ProcessDetectionService, name, f"process.{name}")
    tracer.wrap(ShardWorker, "apply", "shard.apply")
    tracer.wrap(ProcessShardWorker, "wait_acks", "process.ack_wait")
    tracer.wrap(ProcessShardWorker, "finish_call", "worker.call")
    tracer.tally(OnlineCollusionDetector, "observe", "online.observe")
    tracer.wrap(OnlineCollusionDetector, "period_candidates", "online.screen")
    tracer.wrap(coordinator, "join_half_verdicts", "model.join")
    tracer.wrap(process, "join_half_verdicts", "model.join")
    tracer.wrap(SuspectGraph, "build", "rings.build")
    tracer.wrap(RingDetector, "detect", "rings.detect")

    depth = tracer.tallies["shard.queue_depth_max"]
    enqueue = ShardWorker.enqueue

    def sampled(self: ShardWorker, batch: Any) -> None:
        enqueue(self, batch)
        depth[0] = max(depth[0], self.queue.qsize())
    ShardWorker.enqueue = sampled  # type: ignore[method-assign]


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: traced_serve.py --spans-out FILE serve ...", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[1])
    tracer = Tracer()
    instrument(tracer)
    from repro.cli import main as repro_main
    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
