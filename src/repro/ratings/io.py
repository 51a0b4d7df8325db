"""Ledger persistence: CSV (interchange), NPZ (fast) and JSONL (append).

Real deployments collect ratings continuously and analyze offline; this
module gives the ledger durable formats so traces can be saved,
shipped, and re-analyzed:

* **CSV** — ``rater,target,value,time`` with a header row; human
  readable, loads into any tool.
* **NPZ** — numpy's compressed archive of the four columns; orders of
  magnitude faster for large traces and bit-exact on timestamps.
* **JSONL** — one JSON object per line, *append-oriented*: new events
  can be added to an existing file without rewriting it, and a reader
  can stream a file that is still being written.  This is the
  detection service's write-ahead-log format
  (:mod:`repro.service.wal`), and doubles as a trace-tooling
  interchange format.  One binary line reader serves
  :func:`iter_jsonl` (WAL replay) and :func:`load_jsonl` (whole
  traces): a well-formed line is accepted on a fast path of plain type
  checks, and every other line is re-read by :func:`decode_jsonl`, the
  per-line reference, so errors read the same on every path.

All loaders validate like live ingestion (id ranges, values, no
self-ratings), so a corrupted file fails loudly instead of poisoning an
analysis.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
from typing import IO, Any, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError, UnknownNodeError
from repro.ratings.events import Rating
from repro.ratings.ledger import RatingLedger

__all__ = [
    "save_csv",
    "load_csv",
    "save_npz",
    "load_npz",
    "append_jsonl",
    "iter_jsonl",
    "load_jsonl",
    "encode_jsonl",
    "decode_jsonl",
    "validate_record",
    "write_jsonl_events",
]

PathLike = Union[str, pathlib.Path]

_HEADER = ["rater", "target", "value", "time"]


def save_csv(ledger: RatingLedger, path: PathLike) -> int:
    """Write the ledger as CSV; returns the number of events written."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER + [f"n={ledger.n}"])
        for rater, target, value, time in zip(
            ledger.raters, ledger.targets, ledger.values, ledger.times
        ):
            writer.writerow([int(rater), int(target), int(value),
                             repr(float(time))])
    return len(ledger)


def load_csv(path: PathLike, n: Union[int, None] = None) -> RatingLedger:
    """Load a ledger from CSV written by :func:`save_csv`.

    Parameters
    ----------
    path:
        CSV file path.
    n:
        Universe size override; defaults to the size recorded in the
        header (or, failing that, ``max id + 1``).
    """
    path = pathlib.Path(path)
    raters = []
    targets = []
    values = []
    times = []
    header_n = None
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path} is empty — not a ledger CSV") from None
        if header[: len(_HEADER)] != _HEADER:
            raise TraceError(
                f"{path} does not look like a ledger CSV "
                f"(header {header[:4]!r})"
            )
        for extra in header[len(_HEADER):]:
            if extra.startswith("n="):
                header_n = int(extra[2:])
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceError(f"{path}:{line_no}: expected 4 columns, "
                                 f"got {len(row)}")
            try:
                raters.append(int(row[0]))
                targets.append(int(row[1]))
                values.append(int(row[2]))
                times.append(float(row[3]))
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from None

    if n is None:
        n = header_n
    if n is None:
        n = (max(max(raters, default=0), max(targets, default=0)) + 1) or 1
    ledger = RatingLedger(n)
    ledger.extend(raters, targets, values, times)
    return ledger


def save_npz(ledger: RatingLedger, path: PathLike) -> int:
    """Write the ledger as a compressed NPZ; returns the event count."""
    path = pathlib.Path(path)
    np.savez_compressed(
        path,
        n=np.int64(ledger.n),
        raters=ledger.raters.copy(),
        targets=ledger.targets.copy(),
        values=ledger.values.copy(),
        times=ledger.times.copy(),
    )
    return len(ledger)


def load_npz(path: PathLike) -> RatingLedger:
    """Load a ledger from an NPZ written by :func:`save_npz`."""
    path = pathlib.Path(path)
    with np.load(path) as archive:
        required = {"n", "raters", "targets", "values", "times"}
        missing = required - set(archive.files)
        if missing:
            raise TraceError(
                f"{path} is missing ledger arrays: {sorted(missing)}"
            )
        ledger = RatingLedger(int(archive["n"]))
        ledger.extend(
            archive["raters"],
            archive["targets"],
            archive["values"].astype(np.int64),
            archive["times"],
        )
    return ledger


# ----------------------------------------------------------------------
# JSONL — the append-oriented format (service WAL + trace tooling)
# ----------------------------------------------------------------------

def encode_jsonl(rating: Rating) -> str:
    """One rating as a compact single-line JSON record (no newline)."""
    return json.dumps(
        {
            "rater": int(rating.rater),
            "target": int(rating.target),
            "value": int(rating.value),
            "time": float(rating.time),
        },
        separators=(",", ":"),
    )


def write_jsonl_events(handle: IO[str], events: Iterable[Rating]) -> int:
    """Write events to an open text handle; returns the count written.

    The low-level primitive behind :func:`append_jsonl`; the service WAL
    uses it directly so one file handle can stay open across appends.
    """
    count = 0
    for event in events:
        handle.write(encode_jsonl(event) + "\n")
        count += 1
    return count


def append_jsonl(path: PathLike, events: Iterable[Rating]) -> int:
    """Append rating events to a JSONL file; returns the count written.

    The file is created if missing; existing content is never touched,
    so repeated calls build one growing event log.  Events must be
    :class:`~repro.ratings.events.Rating` instances (already validated
    at construction).
    """
    path = pathlib.Path(path)
    with path.open("a") as handle:
        return write_jsonl_events(handle, events)


def _integral(raw: Any, field: str, where: str) -> int:
    """A non-``int`` JSON id or value as an ``int``, or a :class:`TraceError`.

    JSON has one number type, so the integral float ``3.0`` is the id 3.
    ``true``, ``1.9``, ``1e400`` (``inf``) and ``NaN`` are not integers;
    ``int()`` would truncate the first two silently and raise a bare
    ``OverflowError`` or ``ValueError`` on the others.
    """
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise TraceError(f"{where}: {field} must be an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{where}: {field}: {exc}") from None


def _finite_time(raw: Any, where: str) -> float:
    """A non-``float`` or non-finite JSON ``time`` as a finite ``float``,
    or a :class:`TraceError`.

    ``true`` is a boolean and ``"7"`` a string, not a time; ``NaN``,
    ``-Infinity`` and ``1e400`` (``inf``) are not finite, and neither is
    an integer too large for a float.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TraceError(f"{where}: time must be a number, got {raw!r}")
    try:
        time = float(raw)
    except OverflowError as exc:
        raise TraceError(f"{where}: time: {exc}") from None
    if not math.isfinite(time):
        raise TraceError(f"{where}: time must be finite, got {raw!r}")
    return time


def decode_jsonl(line: str, n: Optional[int] = None,
                 where: str = "<jsonl>") -> Rating:
    """Parse one JSONL line into a validated :class:`Rating`.

    ``json.loads`` followed by :func:`validate_record`; ``where`` names
    the source (``path:line``) in error messages.  This is the per-line
    reference every JSONL reader's error path goes through.
    """
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON or an integer past the digit limit;
        # RecursionError: nesting deeper than the parser's stack.
        raise TraceError(f"{where}: invalid JSON: {exc}") from None
    return validate_record(record, n=n, where=where)


def validate_record(record: Any, n: Optional[int] = None,
                    where: str = "<jsonl>") -> Rating:
    """Check one parsed JSON record and return it as a :class:`Rating`.

    Applies the same checks as live ingestion: ``rater``, ``target``
    and ``value`` must be integers (booleans and fractions are
    refused, integral floats accepted), an optional ``time`` must be a
    finite number (not a boolean or string), the :class:`Rating`
    constructor rejects self-ratings, bad values and negative ids, and
    an optional universe size ``n`` bounds the ids.  ``where`` names the source
    (``path:line``) in error messages.
    """
    if not isinstance(record, dict):
        raise TraceError(f"{where}: expected a JSON object, got {type(record).__name__}")
    missing = {"rater", "target", "value"} - set(record)
    if missing:
        raise TraceError(f"{where}: missing fields {sorted(missing)}")
    rater, target, value = record["rater"], record["target"], record["value"]
    if type(rater) is not int or type(target) is not int or type(value) is not int:
        rater = _integral(rater, "rater", where)
        target = _integral(target, "target", where)
        value = _integral(value, "value", where)
    time = record.get("time", 0.0)
    if type(time) is not float or not math.isfinite(time):
        time = _finite_time(time, where)
    try:
        rating = Rating(rater, target, value, time)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{where}: {exc}") from None
    if n is not None and (rating.rater >= n or rating.target >= n):
        raise TraceError(
            f"{where}: node id outside universe of size {n} "
            f"(rater={rating.rater}, target={rating.target})"
        )
    return rating


#: ``(rater, target, value, time)`` — one accepted JSONL line.
_Row = Tuple[int, int, int, float]

_raw_decode = json.JSONDecoder().raw_decode


def _read_rows(path: pathlib.Path, n: Optional[int],
               skip: int) -> Iterator[_Row]:
    """Stream the accepted rows of a JSONL file, skipping the first ``skip``.

    The file is read in binary and each line decoded as UTF-8 on its
    own, so an undecodable byte is a :class:`TraceError` naming
    ``path:line``.  Lines split as text mode splits them (universal
    newlines: LF, CR LF and a lone CR), and blank lines neither count
    toward ``skip`` nor yield.  A line whose one JSON
    object holds plain ``int`` ids and value, a finite ``float`` time
    (or none) and passes the :class:`Rating` rules is accepted here;
    any other line goes to :func:`decode_jsonl`, which returns its
    rating or raises the error it names.
    """
    isfinite = math.isfinite
    line_no = 0
    seen = 0
    with path.open("rb") as handle:
        for raw in handle:
            # A binary line ends at \n only; text mode also ends one at
            # a lone \r, and never at a \r inside a UTF-8 sequence.
            for piece in raw.splitlines() if b"\r" in raw else (raw,):
                line_no += 1
                try:
                    line = piece.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise TraceError(
                        f"{path}:{line_no}: invalid UTF-8: {exc}") from None
                if not line:
                    continue
                seen += 1
                if seen <= skip:
                    continue
                try:
                    record, end = _raw_decode(line)
                except (ValueError, RecursionError):
                    record, end = None, -1
                if end == len(line) and type(record) is dict:
                    rater = record.get("rater")
                    target = record.get("target")
                    value = record.get("value")
                    time = record.get("time", 0.0)
                    if (type(rater) is int and type(target) is int
                            and type(value) is int and type(time) is float
                            and isfinite(time) and -1 <= value <= 1
                            and rater != target and rater >= 0 and target >= 0
                            and (n is None or (rater < n and target < n))):
                        yield rater, target, value, time
                        continue
                rating = decode_jsonl(line, n=n, where=f"{path}:{line_no}")
                yield rating.rater, rating.target, rating.value, rating.time


def iter_jsonl(path: PathLike, n: Optional[int] = None,
               skip: int = 0) -> Iterator[Rating]:
    """Stream validated :class:`Rating` events from a JSONL file.

    Parameters
    ----------
    path:
        JSONL file written by :func:`append_jsonl` (or any tool emitting
        ``{"rater", "target", "value", "time"}`` objects, one per line).
    n:
        Optional universe size; ids at/above it raise
        :class:`~repro.errors.TraceError`.
    skip:
        Number of leading events to skip without validation cost —
        recovery replays only the WAL tail after a snapshot.

    Blank lines are ignored, so a file truncated exactly at a line
    boundary (the only state an append-only writer can leave behind
    short of a torn final line) streams cleanly.
    """
    if skip < 0:
        raise TraceError(f"skip must be non-negative, got {skip}")
    for rater, target, value, time in _read_rows(pathlib.Path(path), n, skip):
        yield Rating(rater, target, value, time)


def load_jsonl(path: PathLike, n: Optional[int] = None) -> RatingLedger:
    """Load a whole JSONL event log into a :class:`RatingLedger`.

    Every line is validated first, then ``n`` (by default ``max id +
    1`` over the file) bounds the ids: the first event naming an id at
    or above it raises :class:`~repro.errors.UnknownNodeError`.  The
    rows go into the ledger as four columns in one
    :meth:`~repro.ratings.ledger.RatingLedger.extend`.
    """
    rows = list(_read_rows(pathlib.Path(path), None, 0))
    columns: List[Tuple[Any, ...]] = list(zip(*rows)) or [(), (), (), ()]
    raters, targets, values, times = columns
    if n is None:
        n = 1 + max(max(raters, default=0), max(targets, default=0))
    ledger = RatingLedger(n)
    if raters and max(max(raters), max(targets)) >= n:
        for rater, target in zip(raters, targets):
            if rater >= n or target >= n:
                raise UnknownNodeError(rater if rater >= n else target, n)
    ledger.extend(raters, targets, values, times)
    return ledger
