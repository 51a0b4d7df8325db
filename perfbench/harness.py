"""Processes, HTTP clients and the open/closed-loop load generator.

Everything a run starts is reaped on every exit path: the service runs
as the leader of its own process group, so stopping it also kills its
worker processes, orphans of a killed server included.  Scratch files live under
``.perfbench_work/`` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import http.client
import os
import pathlib
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

_BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")
#: Seconds a service may take to print its banner, a request to be
#: answered, and a stopping service to exit.
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def child_env() -> Dict[str, str]:
    """Environment for service processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Workspace:
    """Temporary directories and child processes owned by one run."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.servers: List["Server"] = []

    def mkdtemp(self, prefix: str) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.path))

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's workspace is still there


def _processes() -> Iterator[Tuple[int, List[str]]]:
    """``(pid, fields after the command name)`` of every process's stat."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    yield int(entry), handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # exited meanwhile


def process_group(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid``."""
    return [pid for pid, fields in _processes()
            if int(fields[2]) == pgid and fields[0] != "Z"]


def kill_children() -> None:
    """SIGKILL and reap this process's remaining children."""
    for pid, fields in _processes():
        if int(fields[1]) == os.getpid():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """``repro serve`` (or its traced wrapper) as a child process."""

    def __init__(self, ws: Workspace, serve_args: Sequence[str],
                 spans_out: Optional[pathlib.Path] = None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                   "--spans-out", str(spans_out), "serve"]
        cmd += list(serve_args) + ["--port", "0"]
        self.log = ws.mkdtemp("log-") / "serve.log"
        self._log_handle = self.log.open("w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log_handle,
            env=child_env(), cwd=str(ws.path), start_new_session=True,
        )
        ws.servers.append(self)
        assert self.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        banner = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                banner = self.proc.stdout.readline().decode()
                break
            if self.proc.poll() is not None:
                break
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start: {banner!r}; "
                               f"log: {self.log.read_text()[-2000:]}")
        self.host, self.port = match.group(1), int(match.group(2))

    def rss_mb(self) -> float:
        return peak_rss_mb(process_group(self.proc.pid))

    def stop(self) -> None:
        """SIGINT (graceful), then SIGKILL the whole process group."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log_handle.close()


class Client:
    """One keep-alive connection, acknowledging like a steady client.

    Linux delays a TCP ACK by up to 40 ms on a connection it considers
    interactive, but ACKs at once ("quickack") after idle gaps and a few
    other events; which of the two a response meets depends on timing.
    Before every request the client re-enters delayed-ACK mode
    (``TCP_QUICKACK`` cleared), as a busy keep-alive client is, so each
    run measures the same client behaviour instead of a timing-dependent
    mix of both.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                rid: str = "") -> Tuple[int, bytes]:
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            if self.conn.sock is None:
                self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One scheduled request.  ``barrier`` ops run alone: every earlier
    op has finished before one starts, and none starts until it ends."""

    kind: str
    payload: Any = None
    barrier: bool = False
    # filled in by the generator
    due: float = 0.0
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    result: Any = None
    error: str = ""


@dataclass
class StageResult:
    ops: List[Op] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    def latencies_ms(self, kinds: Sequence[str]) -> List[float]:
        """Latency from each op's due time to its completion."""
        return [1000.0 * (op.end - op.due) for op in self.ops
                if op.kind in kinds and op.ok]

    def lateness_ms(self) -> List[float]:
        return [1000.0 * max(0.0, op.start - op.due) for op in self.ops]


class _Schedule:
    """Hands out ops in order, enforcing barriers."""

    def __init__(self, ops: Callable[[], Optional[Op]], stop_at: float,
                 clock: Callable[[], float]) -> None:
        self._next_op = ops
        self._stop_at = stop_at
        self._clock = clock
        self._cond = threading.Condition()
        self._inflight = 0
        self._barrier = False
        self._index = 0
        self.taken: List[Op] = []

    def take(self) -> Optional[Tuple[int, Op]]:
        with self._cond:
            while self._barrier:
                self._cond.wait()
            if self._clock() >= self._stop_at:
                return None
            op = self._next_op()
            if op is None:
                return None
            index = self._index
            self._index += 1
            self.taken.append(op)
            if op.barrier:
                self._barrier = True
                while self._inflight:
                    self._cond.wait()
            self._inflight += 1
            return index, op

    def done(self, op: Op) -> None:
        with self._cond:
            self._inflight -= 1
            if op.barrier:
                self._barrier = False
            self._cond.notify_all()


def run_stage(next_op: Callable[[], Optional[Op]],
              execute: Callable[[int, Op], None],
              workers: int, seconds: float, rate: Optional[float],
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> StageResult:
    """Drive ops for ``seconds`` from ``workers`` threads.

    Open loop (``rate`` ops/s): op ``k`` is due at ``start + k / rate``
    whether or not earlier ops finished, and its latency runs from that
    due time, so a stall is charged to every request queued behind it.
    Closed loop (``rate=None``): each thread sends its next op as soon
    as its previous one finished.  ``execute(worker, op)`` performs the
    request and sets ``op.ok`` / ``op.result``; it must not raise.
    """
    started = clock()
    schedule = _Schedule(next_op, started + seconds, clock)
    interval = 0.0 if rate is None else 1.0 / rate

    def loop(worker: int) -> None:
        while True:
            taken = schedule.take()
            if taken is None:
                return
            index, op = taken
            op.due = started + index * interval
            now = clock()
            if rate is None:
                op.due = now
            elif now < op.due:
                sleep(op.due - now)
            op.start = clock()
            try:
                execute(worker, op)
            finally:
                op.end = clock()
                schedule.done(op)

    threads = [threading.Thread(target=loop, args=(w,), daemon=True,
                                name=f"perfbench-load-{w}")
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return StageResult(ops=schedule.taken, started=started, ended=clock())
