"""In-memory span recorder that wraps the program's public functions.

The traced run patches the functions it measures (``Tracer.wrap``) so
that each call records a span: name, start, end, parent span and the
request id of the request it serves.  Spans stay in memory and are
written out once, when the run ends.  Per-event hot paths (``observe``,
``decode_jsonl`` on a whole trace) would drown in span objects, so they
are wrapped with ``Tracer.tally`` instead: a call count and a time
total at the same boundary.

A layer's self time is its span's duration minus the part covered by
its child spans (children never outlive their parent: they run on the
same thread, nested in its call).
"""

from __future__ import annotations

import functools
import json
import pathlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, Iterable, List, Optional

Span = Dict[str, Any]


class Tracer:
    """Collects spans and tallies for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.tallies: DefaultDict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[str]) -> None:
        """Tag the spans this thread opens from now on with ``rid``."""
        self._local.rid = rid

    def record(self, name: str, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span: Span = {
            "name": name,
            "rid": getattr(self._local, "rid", None),
            "parent": parent["id"] if parent else None,
            "thread": threading.get_ident(),
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if isinstance(owner, type) and attr in owner.__dict__:
            original = owner.__dict__[attr]  # keeps classmethod wrappers
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        def make(original: Any) -> Any:
            kind = type(original)
            func = original.__func__ if kind in (classmethod, staticmethod) else original

            @functools.wraps(func)
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self.record(name, func, *args, **kwargs)
            return kind(traced) if kind in (classmethod, staticmethod) else traced
        self._patch(owner, attr, make)

    def tally(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and total their time, no spans."""
        tallies = self.tallies[name]
        clock = time.perf_counter

        def make(original: Any) -> Any:
            @functools.wraps(original)
            def counted(*args: Any, **kwargs: Any) -> Any:
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tallies[0] += 1
                    tallies[1] += clock() - started
            return counted
        self._patch(owner, attr, make)

    def patches(self) -> int:
        """How many patches are in place (a mark for :meth:`unwrap`)."""
        return len(self._restore)

    def unwrap(self, keep: int = 0) -> None:
        """Undo the patches made after the first ``keep``."""
        while len(self._restore) > keep:
            self._restore.pop()()

    # -- output --------------------------------------------------------
    def dump(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "tallies": {k: list(v) for k, v in self.tallies.items()},
        }))


def self_times(spans: Iterable[Span]) -> List[Span]:
    """Annotate each finished span with ``dur`` and ``self`` (seconds)."""
    finished = [s for s in spans if "end" in s]
    by_id = {s["id"]: s for s in finished}
    for span in finished:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"]
    for span in finished:
        parent = by_id.get(span["parent"])
        if parent is not None:
            parent["self"] -= span["dur"]
    return finished


def by_name(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        out[span["name"]].append(span)
    return out
