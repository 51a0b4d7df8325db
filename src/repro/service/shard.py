"""Shard state and the in-thread shard transport.

The rating stream is partitioned by ``target % num_shards``.  Every
counter the detection algorithm reads for a target is keyed by the
*target*, so a shard ingests and screens its share with no cross-shard
synchronization; only the period boundary (the global reputation gate
and the symmetric-pair join) needs the coordinator.

:class:`ShardState` is everything one shard owns: the detector, the
cumulative reputation, and — in durable mode — its own WAL and state
images under ``data_dir/shard-NN/``.  It recovers itself (map the
latest image, replay the current epoch's WAL tail through the same
:meth:`ShardState.fold` as live ingest, then catch up to the
coordinator's committed epoch) and answers a fixed vocabulary of named
commands (:meth:`ShardState.dispatch`).  Both transports run it unchanged:
:class:`ShardWorker` on a thread here,
:class:`~repro.service.worker.ProcessShardWorker` in a child process.

:class:`ShardWorker` confines the state to its thread: batches and
:class:`_Command` objects share one bounded FIFO queue, so every
command is also a barrier behind the batches queued before it.
Replies are handed back in memory, never pickled.
"""

from __future__ import annotations

import os
import pathlib
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import HalfVerdict
from repro.core.online import OnlineCollusionDetector
from repro.errors import (
    BackpressureError,
    RecoveryError,
    ServiceError,
    WorkerCrashError,
)
from repro.ratings.events import Rating
from repro.reputation.summation import SummationState
from repro.service.config import ServiceConfig
from repro.service.snapshot import StateImageStore, persisted_int
from repro.service.wal import WriteAheadLog

__all__ = ["ShardState", "ShardWorker", "shard_data_dir"]

_STOP = object()


def shard_data_dir(data_dir: pathlib.Path, shard_id: int) -> pathlib.Path:
    """Per-shard durability root: ``<data_dir>/shard-NN``."""
    return data_dir / f"shard-{shard_id:02d}"


def thresholds_signature(config: ServiceConfig) -> List[object]:
    """The detection parameters persisted state must agree with."""
    th = config.thresholds
    return [th.t_r, th.t_a, th.t_b, th.t_n, config.multi_booster_exclusion]


def check_compat(state: Dict[str, object], config: ServiceConfig,
                 what: str) -> None:
    """Reject persisted state written under an incompatible config."""
    if state.get("n") != config.n:
        raise RecoveryError(
            f"{what} universe n={state.get('n')} != configured n={config.n}"
        )
    if state.get("num_shards") != config.num_shards:
        raise RecoveryError(
            f"{what} has {state.get('num_shards')} shards, configured "
            f"{config.num_shards} — repartitioning requires an offline "
            f"replay, not a restart"
        )
    if state.get("thresholds") != thresholds_signature(config):
        raise RecoveryError(
            f"{what} thresholds {state.get('thresholds')} != configured "
            f"{thresholds_signature(config)}"
        )


class ShardState:
    """One partition's detector, reputation and durability.

    Not thread-safe: a child process owns it whole, while the thread
    transport folds on its worker and logs under the ingest lock.
    """

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.detector = OnlineCollusionDetector(
            config.n,
            thresholds=config.thresholds,
            multi_booster_exclusion=config.multi_booster_exclusion,
        )
        self.cumulative = SummationState(config.n)
        self.epoch = 0
        self.epoch_events = 0
        self.total_events = 0
        self.replayed = 0
        self.restart_ms = 0.0
        self.wal: Optional[WriteAheadLog] = None
        self.images: Optional[StateImageStore] = None
        if config.data_dir is not None:
            base = shard_data_dir(pathlib.Path(config.data_dir), shard_id)
            self.wal = WriteAheadLog(base / "wal", fsync=config.fsync)
            self.images = StateImageStore(
                base / "images", keep=config.keep_snapshots
            )

    # -- recovery ------------------------------------------------------
    def recover(self, meta_epoch: int) -> Dict[str, object]:
        """Image + WAL-tail recovery, then catch up to ``meta_epoch``.

        Returns the ready status.  The wall-clock cost of the whole
        sequence is recorded as ``restart_ms``.
        """
        started = time.perf_counter()
        try:
            self._recover(meta_epoch)
        finally:
            self.restart_ms = (time.perf_counter() - started) * 1000.0
        return self.status()

    def _restore_image(self) -> bool:
        assert self.images is not None
        image = self.images.load_latest()
        if image is None:
            # Keyed on snapshot files, not on the directory: an empty
            # snapshots/ next to a shard is harmless.
            legacy = self.images.directory.parent / "snapshots"
            if any(legacy.glob("snapshot-*.json")):
                raise RecoveryError(
                    f"{legacy} holds retired JSON shard snapshots and no "
                    f"state image; this build reads only REPM images — "
                    f"start the previous build once with --matrix-backend "
                    f"mmap and stop it gracefully to publish images"
                )
            return False
        arrays, meta, mapping = image
        check_compat(meta, self.config, f"shard {self.shard_id} image")
        if meta.get("shard_id") != self.shard_id:
            raise RecoveryError(
                f"shard {self.shard_id} found an image for shard "
                f"{meta.get('shard_id')!r} in its data dir"
            )
        self.epoch = persisted_int(meta, "epoch")
        self.epoch_events = persisted_int(meta, "wal_applied")
        self.total_events = persisted_int(meta, "total_events")
        self.detector.restore_arrays(arrays, persisted_int(meta, "events"))
        self.cumulative = SummationState.from_arrays(
            self.config.n, arrays["cum_pos"], arrays["cum_neg"]
        )
        # Restore copies everything it keeps, so the mapping can be
        # released immediately.
        del arrays
        try:
            mapping.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        return True

    def _recover(self, meta_epoch: int) -> None:
        if self.wal is None or self.images is None:
            # Nothing durable to recover: an ephemeral (re)start joins
            # the coordinator's current epoch with empty counters.
            self.epoch = meta_epoch
            return
        # Is the newest image already this shard's position?  Then a
        # clean restart need not rewrite it.
        current = self._restore_image()
        # Replay the current epoch's WAL tail through the live fold —
        # the same code path as ingestion, which is what makes recovery
        # provably equivalent.
        tail = list(self.wal.replay(
            self.epoch, skip=self.epoch_events, n=self.config.n))
        self.fold(tail)
        self.replayed = len(tail)
        current = current and not tail
        # Catch up to a period close that committed (meta.json written)
        # before this shard advanced: the close's verdicts are already
        # published, so the idempotent remainder is reset + snapshot +
        # rotate.  A shard can be at most one epoch behind — ingest
        # never resumes until every shard has advanced.
        if self.epoch > meta_epoch:
            raise RecoveryError(
                f"shard {self.shard_id} is at epoch {self.epoch}, ahead of "
                f"the coordinator's committed epoch {meta_epoch} — "
                f"the data dir is inconsistent"
            )
        while self.epoch < meta_epoch:
            self.advance(self.epoch + 1)  # snapshots the new epoch
            current = True
        self.wal.open_epoch(self.epoch)
        if not current:
            self.snapshot()

    # -- data plane ----------------------------------------------------
    def apply(self, batch: Sequence[Rating]) -> None:
        """WAL-append (durable), then fold a batch into the counters."""
        self.log(batch)
        self.fold(batch)

    def log(self, batch: Sequence[Rating]) -> None:
        """Durably append a batch to the open epoch's WAL (if any)."""
        if self.wal is not None:
            self.wal.append(batch)

    def fold(self, batch: Sequence[Rating]) -> None:
        """Fold a batch into the counters — live ingest and WAL replay."""
        observe = self.detector.observe
        cumulative_observe = self.cumulative.observe
        for event in batch:
            observe(event.rater, event.target, event.value)
            cumulative_observe(event.target, event.value)
        self.epoch_events += len(batch)
        self.total_events += len(batch)

    # -- control plane -------------------------------------------------
    def status(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "pid": os.getpid(),
            "epoch": self.epoch,
            "epoch_events": self.epoch_events,
            "total_events": self.total_events,
            "replayed": self.replayed,
            "restart_ms": round(self.restart_ms, 3),
        }

    def candidates(
        self, gate: "np.ndarray"
    ) -> Tuple[List[HalfVerdict], Dict[str, int]]:
        before = self.detector.ops.snapshot()
        found = self.detector.period_candidates(reputation=gate)
        return found, self.detector.ops.diff(before)

    def export_state(self) -> Dict[str, object]:
        """JSON-serializable detector + cumulative state."""
        return {
            "shard_id": self.shard_id,
            "detector": self.detector.export_state(),
            "cumulative": self.cumulative.export_state(),
        }

    def wal_events(self) -> List[Rating]:
        """The open epoch's events, re-read from this shard's WAL."""
        if self.wal is None:
            raise ServiceError("WAL replay needs a data_dir (durable mode)")
        return list(self.wal.replay(self.epoch, n=self.config.n))

    def advance(self, new_epoch: int) -> Dict[str, object]:
        """Period-close epilogue: reset, snapshot the new epoch, rotate.

        Idempotent at the target epoch: a shard that crashed after the
        coordinator's meta commit re-runs this epilogue during its own
        recovery, so the coordinator's subsequent ``advance`` finds it
        already there and must be a no-op, not an error.
        """
        if new_epoch == self.epoch:
            return self.status()
        if new_epoch != self.epoch + 1:
            raise ServiceError(
                f"shard {self.shard_id} asked to advance from epoch "
                f"{self.epoch} to {new_epoch} (must be consecutive)"
            )
        self.detector.reset_period()
        self.epoch = new_epoch
        self.epoch_events = 0
        if self.wal is not None:
            self.snapshot()
            self.wal.rotate(self.epoch)
        return self.status()

    def snapshot(self) -> None:
        """Publish the shard's state as an image at its WAL position."""
        if self.images is None:
            raise ServiceError("snapshots need a data_dir (durable mode)")
        arrays = self.detector.export_arrays()
        cumulative = self.cumulative.export_arrays()
        arrays["cum_pos"] = cumulative["pos"]
        arrays["cum_neg"] = cumulative["neg"]
        self.images.save(arrays, {
            "epoch": self.epoch,
            "wal_applied": self.epoch_events,
            "total_events": self.total_events,
            "n": self.config.n,
            "num_shards": self.config.num_shards,
            "thresholds": thresholds_signature(self.config),
            "kind": "shard-state",
            "shard_id": self.shard_id,
            "events": self.detector.events_this_period,
        })

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def dispatch(self, name: str, args: Tuple[Any, ...]) -> Any:
        """Run one named command (the transports' shared vocabulary)."""
        handler = {
            "barrier": lambda: None,
            "status": self.status,
            "reputation": self.detector.period_reputation,
            "candidates": self.candidates,
            "graph": lambda gate: (
                self.detector.period_candidates(reputation=gate),
                self.detector.pair_counts(),
                *self.detector.node_counters(),
            ),
            "cumulative": lambda: self.cumulative.reputation(),
            "cumulative_of":
                lambda node: float(self.cumulative.reputation_of(node)),
            "ops": self.detector.ops.snapshot,
            "export": self.export_state,
            "wal_events": self.wal_events,
            "advance": self.advance,
            "snapshot": self.snapshot,
        }.get(name)
        if handler is None:
            raise ServiceError(f"unknown shard command {name!r}")
        return handler(*args)


class _Command:
    """A named command for the worker thread, with completion signal."""

    __slots__ = ("name", "args", "done", "result", "error")

    def __init__(self, name: str, args: Tuple[Any, ...]) -> None:
        self.name = name
        self.args = args
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class ShardWorker:
    """The in-thread shard transport: a bounded queue and one thread.

    Implements :class:`~repro.service.coordinator.ShardTransport` for
    the default :class:`~repro.service.coordinator.DetectionService`.
    """

    pid: Optional[int] = None  # no process of its own

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.state = ShardState(shard_id, config)
        self.queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=config.queue_capacity
        )
        self.ready_status: Dict[str, object] = {}
        self._thread: Optional[threading.Thread] = None
        # Why the worker takes no more work, and a command that outlived
        # worker_timeout_s (the shard is down until it returns).
        self._failure: Optional[BaseException] = None
        self._timed_out: Optional[_Command] = None

    @property
    def detector(self) -> OnlineCollusionDetector:
        return self.state.detector

    def export_state(self) -> Dict[str, object]:
        """The shard's exported state (inline: only safe when stopped)."""
        return self.state.export_state()

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        running = self._thread is not None and self._thread.is_alive()
        return running and self._failure is None and not self._stuck

    @property
    def _stuck(self) -> bool:
        """Still running a command that outlived ``worker_timeout_s``."""
        command, thread = self._timed_out, self._thread
        return (command is not None and not command.done.is_set()
                and thread is not None and thread.is_alive())

    def start(self, meta_epoch: int = 0) -> Dict[str, object]:
        """Recover the shard state, then start the worker thread."""
        if self.alive:
            return self.ready_status
        self.ready_status = self.state.recover(meta_epoch)
        self._failure = None
        self._timed_out = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{self.shard_id}", daemon=True
        )
        self._thread.start()
        return self.ready_status

    def restart(self, meta_epoch: int) -> Dict[str, object]:
        """Replace a dead worker: fresh state recovered from disk.

        A thread cannot be killed, so a shard still running a timed-out
        command stays down until the command returns.
        """
        if self._stuck:
            raise self._dead()
        self.close()
        if self._thread is not None:
            raise WorkerCrashError(self.shard_id, "worker thread did not stop in time")
        self.state = ShardState(self.shard_id, self.config)
        self.queue = queue.Queue(maxsize=self.config.queue_capacity)
        return self.start(meta_epoch)

    def stop(self) -> None:
        """Stop after applying everything already queued.

        The hand-off and the join are bounded by ``worker_timeout_s``;
        a thread still busy past it keeps its handle, so :meth:`restart`
        refuses until it has gone.
        """
        thread = self._thread
        if thread is not None and thread.is_alive():
            self._failure = self._failure or ServiceError("stopped")
            try:
                self.queue.put(_STOP, timeout=self.config.worker_timeout_s)
            except queue.Full:
                pass  # stuck behind a full queue: abandon the thread
            thread.join(self.config.worker_timeout_s)
        if thread is None or not thread.is_alive():
            self._thread = None
            self.state.close()

    close = stop  # a thread cannot be killed; closing drains the queue

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                return
            if isinstance(item, _Command):
                try:
                    item.result = self.state.dispatch(item.name, item.args)
                except BaseException as exc:  # surface to the caller
                    item.error = exc
                finally:
                    item.done.set()
                continue
            try:
                self.apply(item)
            except Exception as exc:
                # Batches are validated before enqueue, so this is a bug:
                # die, and let the coordinator restart the shard from its
                # WAL rather than continue with corrupt counters.
                self._failure = exc
                return

    # -- data plane ----------------------------------------------------
    def has_capacity(self) -> bool:
        """Room for one more batch?  Only meaningful under the ingest
        lock (workers only *remove* items, so a yes cannot turn stale)."""
        return not self.queue.full()

    def enqueue(self, batch: Sequence[Rating]) -> None:
        """WAL-append the batch on the caller's thread, then queue it.

        Called only under the coordinator's ingest lock, after a
        capacity check (so the put cannot fail) on a live worker; the
        WAL is otherwise touched only by commands the coordinator
        awaits under that lock.  A failed append takes the shard down,
        so it is restarted from what its WAL really holds.
        """
        if self.queue.full():
            raise BackpressureError(self.shard_id, self.config.queue_capacity)
        try:
            self.state.log(batch)
        except OSError as exc:
            self._failure = exc
            raise WorkerCrashError(self.shard_id, f"WAL append failed: {exc}") from exc
        self.queue.put_nowait(batch)

    def apply(self, batch: Sequence[Rating]) -> None:
        """Fold a batch into the shard state (worker thread, or inline)."""
        self.state.fold(batch)

    def wait_acks(self) -> None:
        """Nothing to wait for: :meth:`enqueue` already WAL-appended."""

    # -- control plane -------------------------------------------------
    def start_call(self, name: str, *args: Any) -> _Command:
        """Queue a named command behind every queued batch."""
        if not self.alive:
            raise self._dead()
        command = _Command(name, args)
        try:  # blocking (control must not be dropped) but bounded
            self.queue.put(command, timeout=self.config.worker_timeout_s)
        except queue.Full:
            raise WorkerCrashError(self.shard_id, "command queue stayed full") from None
        return command

    def finish_call(self, command: _Command) -> Any:
        """Wait for :meth:`start_call`'s command; re-raise its error."""
        deadline = time.monotonic() + self.config.worker_timeout_s
        while not command.done.wait(0.05):
            if not self.alive:
                raise self._dead()
            if time.monotonic() > deadline:
                self._timed_out = command
                raise WorkerCrashError(
                    self.shard_id,
                    f"no reply within {self.config.worker_timeout_s}s",
                )
        if command.error is not None:
            raise command.error
        return command.result

    def call(self, name: str, *args: Any) -> Any:
        """Round-trip one command (a barrier behind all queued batches)."""
        return self.finish_call(self.start_call(name, *args))

    def queue_depth(self) -> int:
        return self.queue.qsize()

    def _dead(self) -> WorkerCrashError:
        if self._stuck:
            return WorkerCrashError(self.shard_id, "a command timed out")
        return WorkerCrashError(
            self.shard_id, f"worker thread is not running ({self._failure})"
        )
