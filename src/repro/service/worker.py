"""The subprocess shard transport: one OS process per shard.

:class:`ProcessShardWorker` implements
:class:`~repro.service.coordinator.ShardTransport` for
:class:`~repro.service.process.ProcessDetectionService`, so ingest and
screening scale past the GIL.  The child runs the same
:class:`~repro.service.shard.ShardState` as the in-thread transport;
only the hops differ.  Rating batches travel as plain tuples (cheap to
pickle) on a bounded ``multiprocessing.Queue`` — a full queue is
explicit backpressure — and durable batches are acknowledged on the
reply pipe once WAL-appended.  Named commands ride the same queue, so
each reply is a barrier.  Every reply wait polls the child's liveness
and gives up after ``worker_timeout_s``
(:class:`~repro.errors.WorkerCrashError`).  The handle is not
thread-safe on its own: the coordinator's ingest lock serializes it.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro.errors import (
    BackpressureError,
    RecoveryError,
    ServiceError,
    WorkerCrashError,
)
from repro.ratings.events import Rating
from repro.service.config import ServiceConfig
from repro.service.shard import ShardState, shard_data_dir

__all__ = ["ProcessShardWorker", "shard_data_dir"]

#: One rating event on the wire: ``(rater, target, value, time)``.
EventTuple = Tuple[int, int, int, float]

#: ``fork`` keeps worker startup at milliseconds (no numpy re-import).
#: It is only safe because the service forks the initial workers before
#: any other thread exists (``start()`` runs before the HTTP server's
#: handler threads); platforms without it fall back to ``spawn``.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: Runtime *restarts* happen from a multithreaded parent (HTTP handler
#: threads), where ``fork`` can deadlock the child on a lock some other
#: thread held at fork time and leaks the siblings' queue/pipe FDs into
#: it.  ``forkserver`` forks from a dedicated single-threaded server
#: process (itself launched via exec, which is thread-safe) and only
#: passes the new worker's own handles; ``spawn`` is the portable
#: fallback.  Both only cost extra milliseconds, and only at restart.
_RESTART_METHOD = next(
    method for method in ("forkserver", "spawn", "fork")
    if method in multiprocessing.get_all_start_methods()
)


def _worker_main(shard_id: int, config: ServiceConfig, meta_epoch: int,
                 commands: "multiprocessing.Queue[Any]",
                 replies: Connection) -> None:
    """Child entrypoint: recover, then serve the command loop forever."""
    try:
        state = ShardState(shard_id, config)
        ready = state.recover(meta_epoch)
    except BaseException as exc:  # surfaced to the parent, then exit
        replies.send(("fatal", f"{type(exc).__name__}: {exc}"))
        return
    replies.send(("ready", ready))
    while True:
        message = commands.get()
        kind = message[0]
        if kind == "apply":
            _, events, want_ack = message
            state.apply([Rating(rater, target, value, time=when)
                         for rater, target, value, when in events])
            if want_ack:
                replies.send(("ack", len(events)))
        elif kind == "call":
            _, seq, name, args = message
            if name == "stop":
                state.close()
                replies.send(("result", seq, state.status()))
                return
            try:
                result = state.dispatch(name, args)
            except BaseException as exc:
                replies.send(
                    ("error", seq, f"{type(exc).__name__}: {exc}")
                )
            else:
                replies.send(("result", seq, result))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardWorker:
    """Parent-side handle on one shard worker process (see the module
    docstring: one queue for data and control, a reply pipe, no lock)."""

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.ready_status: Dict[str, object] = {}
        self.process: Optional[BaseProcess] = None
        self._seq = 0
        self._acks_pending = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def start(self, meta_epoch: int = 0,
              method: str = _START_METHOD) -> Dict[str, object]:
        """Spawn the child; it recovers, then reports ready."""
        ctx = multiprocessing.get_context(method)
        self.queue: "multiprocessing.Queue[Any]" = ctx.Queue(
            maxsize=self.config.queue_capacity
        )
        self._recv, self._send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.shard_id, self.config, meta_epoch, self.queue,
                  self._send),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        self._seq = 0
        self._acks_pending = 0
        self.ready_status = self._wait_ready()
        return self.ready_status

    def restart(self, meta_epoch: int) -> Dict[str, object]:
        """Replace a dead worker through :data:`_RESTART_METHOD` (never
        ``fork``); durable workers recover from their WAL."""
        self.close()
        return self.start(meta_epoch, _RESTART_METHOD)

    def _wait_ready(self) -> Dict[str, object]:
        try:
            message = self._recv_message()
        except WorkerCrashError:
            raise RecoveryError(
                f"shard {self.shard_id} worker died during startup"
            ) from None
        if message[0] != "ready":  # ("fatal", detail)
            raise RecoveryError(
                f"shard {self.shard_id} worker failed to start: {message[1]}"
            )
        return cast(Dict[str, object], message[1])

    def stop(self) -> None:
        """Graceful drain: every queued batch is applied, then exit (a
        dead worker is only released)."""
        if self.alive:
            self.call("stop")
            assert self.process is not None
            self.process.join(timeout=self.config.worker_timeout_s)
        self.close()

    def close(self) -> None:
        """SIGKILL the worker if it still runs; release OS resources."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)
        self.queue.close()
        self.queue.cancel_join_thread()
        self._recv.close()
        self._send.close()

    # -- data plane ----------------------------------------------------
    def has_capacity(self) -> bool:
        """Room for one more batch?  Accurate under the ingest lock —
        the parent is the only producer and workers only remove."""
        return not self.queue.full()

    def enqueue(self, batch: Sequence[Rating]) -> None:
        """Queue a batch; explicit :class:`BackpressureError` when full.

        Durable batches ask for an ack, sent once WAL-appended.
        """
        events: List[EventTuple] = [
            (e.rater, e.target, e.value, e.time) for e in batch
        ]
        want_ack = self.config.durable
        try:
            self.queue.put_nowait(("apply", events, want_ack))
        except queue_module.Full:
            raise BackpressureError(
                self.shard_id, self.config.queue_capacity
            ) from None
        if want_ack:
            self._acks_pending += 1

    def wait_acks(self) -> None:
        """Block until every durable batch sent so far is WAL-appended."""
        self._collect(None)

    # -- control plane -------------------------------------------------
    def start_call(self, name: str, *args: Any) -> int:
        """Send a command without waiting; returns its sequence number."""
        self._seq += 1
        try:
            # Blocking (control must not be dropped) but bounded: a dead
            # worker never drains the queue, and waiting forever on it
            # would wedge the whole front-end.
            self.queue.put(("call", self._seq, name, args),
                           timeout=self.config.worker_timeout_s)
        except queue_module.Full:
            raise WorkerCrashError(
                self.shard_id,
                "command queue stayed full past worker_timeout_s"
                if self.alive else "worker process has exited",
            ) from None
        return self._seq

    def finish_call(self, seq: int) -> Any:
        """Collect the reply for :meth:`start_call`'s ``seq``."""
        return self._collect(seq)

    def _collect(self, seq: Optional[int]) -> Any:
        """Read replies until ``seq``'s arrives (or, for ``None``, until
        every pending ack has).

        Stale replies drain silently instead of surfacing as protocol
        errors: results with an older sequence number belong to calls
        whose collection an aborted fan-out gave up on, and acks to a
        submit that failed on another shard.
        """
        while seq is not None or self._acks_pending:
            message = self._recv_message()
            kind = message[0]
            if kind == "ack":
                self._acks_pending = max(0, self._acks_pending - 1)
                continue
            if kind not in ("result", "error"):
                raise ServiceError(
                    f"shard {self.shard_id} protocol error: unexpected "
                    f"{kind!r} reply"
                )
            _, got_seq, value = message
            if seq is None or got_seq < seq:
                continue
            if got_seq != seq:
                raise ServiceError(
                    f"shard {self.shard_id} protocol error: reply seq "
                    f"{got_seq} != expected {seq}"
                )
            if kind == "error":
                raise ServiceError(
                    f"shard {self.shard_id} command failed: {value}"
                )
            return value
        return None

    def call(self, name: str, *args: Any) -> Any:
        """Round-trip one command (a barrier behind all queued batches)."""
        return self.finish_call(self.start_call(name, *args))

    # -- plumbing ------------------------------------------------------
    def _recv_message(self) -> Tuple[Any, ...]:
        """One reply off the pipe, with liveness-aware timeout."""
        process = self.process
        assert process is not None
        deadline = time.monotonic() + self.config.worker_timeout_s
        while True:
            try:
                if self._recv.poll(0.05):
                    return cast(Tuple[Any, ...], self._recv.recv())
            except (EOFError, OSError):
                raise WorkerCrashError(
                    self.shard_id, "reply channel closed"
                ) from None
            if not process.is_alive():
                # One final drain: the child may have replied just
                # before exiting (e.g. the stop handshake).
                if self._recv.poll(0):
                    return cast(Tuple[Any, ...], self._recv.recv())
                raise WorkerCrashError(
                    self.shard_id,
                    f"exit code {process.exitcode}",
                )
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    self.shard_id,
                    f"no reply within {self.config.worker_timeout_s}s "
                    f"(process alive but unresponsive)",
                )

    def queue_depth(self) -> int:
        """Batches enqueued but not yet taken by the worker."""
        try:
            return self.queue.qsize()
        except NotImplementedError:  # pragma: no cover - macOS sem_getvalue
            return -1
