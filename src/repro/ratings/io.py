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
  interchange format.  One chunked columnar reader serves
  :func:`iter_jsonl` (WAL replay) and :func:`load_jsonl` (whole
  traces).  It reads about 256 KiB of whole lines at a time, splits
  them on ``\n`` only, joins the non-blank lines into one JSON array
  for a single ``json.loads``, and runs the checks on four numpy
  columns.  The join is trusted only when no record can span two
  lines: the chunk holds no ``[`` or ``]``, every line is one
  ``{...}``, and the ``{`` count, the ``}`` count and the number of
  parsed records all equal the line count.  Any chunk that fails the
  guard, the UTF-8 decode, the parse or a column check is re-read
  line by line through :func:`decode_jsonl`, the per-line reference,
  so errors read the same on every path.

All loaders validate like live ingestion (id ranges, values, no
self-ratings, finite times), so a corrupted file fails loudly instead
of poisoning an analysis.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import pathlib
from typing import IO, Any, Generator, Iterable, Iterator, List, Optional, Tuple, Union

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


def _first_nonfinite(times: np.ndarray) -> int:
    """The index of the first NaN or infinite time, or -1 if none is.

    Such a time lies outside every window, so a rating with one would
    drop out of every matrix without a word.
    """
    finite = np.isfinite(times)
    return -1 if finite.all() else int(np.argmin(finite))


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
    line_nos = []
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
                try:
                    header_n = int(extra[2:])
                except ValueError:
                    raise TraceError(f"{path}:1: universe size must be an "
                                     f"integer, got {extra!r}") from None
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
            line_nos.append(line_no)
    bad = _first_nonfinite(np.array(times, dtype=np.float64))
    if bad >= 0:
        raise TraceError(f"{path}:{line_nos[bad]}: time must be finite, "
                         f"got {times[bad]!r}")

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
        times = archive["times"]
        bad = _first_nonfinite(times)
        if bad >= 0:
            raise TraceError(f"{path}: time must be finite, got "
                             f"{float(times[bad])!r} (event {bad})")
        ledger = RatingLedger(int(archive["n"]))
        ledger.extend(
            archive["raters"],
            archive["targets"],
            archive["values"].astype(np.int64),
            times,
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

#: Raters, targets, values (``int64``) and times (``float64``) of a run
#: of accepted lines; ids past ``int64`` make ``object`` id columns.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Bytes per read of the JSONL reader.  A chunk runs on to the next
#: ``\n``, so it holds whole lines.
_CHUNK_BYTES = 256 * 1024


def _byte_chunks(handle: IO[bytes]) -> Iterator[bytes]:
    """The bytes of ``handle`` in chunks of about :data:`_CHUNK_BYTES`,
    each ending at a ``\n`` (the last one may not)."""
    tail = b""
    while True:
        block = handle.read(_CHUNK_BYTES)
        if not block:
            if tail:
                yield tail
            return
        cut = block.rfind(b"\n") + 1
        if not cut:
            tail += block
            continue
        yield tail + block[:cut]
        tail = block[cut:]


def _chunk_lines(chunk: bytes) -> Optional[List[str]]:
    """The stripped non-blank lines of a chunk, or ``None`` if it is not
    UTF-8 or splits differently in text mode (a lone ``\r``)."""
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    # str.splitlines() would also split at \x0b, \x1c, \x85, \u2028...
    return [line for line in map(str.strip, text.split("\n")) if line]


def _columns(lines: List[str], n: Optional[int]) -> Optional[_Columns]:
    """The lines as columns with one ``json.loads``, or ``None`` if any of
    them needs the per-line reference.

    The lines are parsed as one JSON array, which is sound only if no
    record can span two lines: every line is one ``{...}`` holding no
    other brace or bracket, so every brace is structural.  The columns
    then pass only if every line is a rating the fast path of
    :func:`validate_record` accepts: ``int`` ids and value, an ``int``
    or ``float`` time (or none) that is finite, and the :class:`Rating`
    and ``n`` rules.
    """
    count = len(lines)
    body = "\n".join(lines)
    if (body[0] != "{" or body[-1] != "}" or body.count("}\n{") != count - 1
            or body.count("{") != count or body.count("}") != count
            or "[" in body or "]" in body):
        return None
    try:
        records = json.loads("[" + body.replace("\n", ",") + "]")
        raters = [record["rater"] for record in records]
        targets = [record["target"] for record in records]
        values = [record["value"] for record in records]
    except (ValueError, KeyError):
        return None
    times = [record.get("time", 0.0) for record in records]
    kinds = set(map(type, raters))
    kinds.update(map(type, targets))
    kinds.update(map(type, values))
    if (len(records) != count or kinds != {int}
            or not set(map(type, times)) <= {int, float}):
        return None
    try:
        r = np.array(raters, dtype=np.int64)
        t = np.array(targets, dtype=np.int64)
        v = np.array(values, dtype=np.int64)
        tm = np.array(times, dtype=np.float64)
    except OverflowError:
        return None
    top = max(int(r.max()), int(t.max()))
    if (r.min() < 0 or t.min() < 0 or (n is not None and top >= n)
            or v.min() < -1 or v.max() > 1 or (r == t).any()
            or _first_nonfinite(tm) >= 0):
        return None
    return r, t, v, tm


def _stack(rows: List[_Row]) -> _Columns:
    """Rows as columns; ids past ``int64`` (which :class:`Rating` allows)
    stay Python ints in ``object`` columns."""
    raters, targets, values, times = zip(*rows)
    try:
        ids = np.array([raters, targets], dtype=np.int64)
    except OverflowError:
        ids = np.array([raters, targets], dtype=object)
    return (ids[0], ids[1], np.array(values, dtype=np.int64),
            np.array(times, dtype=np.float64))


def _per_line(chunk: bytes, path: pathlib.Path, line_no: int,
              n: Optional[int], skip: int) -> Generator[_Columns, None, int]:
    """A chunk's lines through :func:`decode_jsonl`, the reference.

    Lines split as text mode splits them (LF, CR LF and a lone CR), an
    undecodable byte is a :class:`TraceError` naming ``path:line``, and
    the first ``skip`` non-blank lines are passed over.  The rows
    before a failing line are yielded before its error is raised.
    Returns the ``skip`` left over.
    """
    rows: List[_Row] = []
    try:
        for piece in chunk.splitlines():
            line_no += 1
            try:
                line = piece.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"{path}:{line_no}: invalid UTF-8: {exc}") from None
            if not line:
                continue
            if skip:
                skip -= 1
                continue
            rating = decode_jsonl(line, n=n, where=f"{path}:{line_no}")
            rows.append((rating.rater, rating.target, rating.value, rating.time))
    except TraceError:
        if rows:
            yield _stack(rows)
        raise
    if rows:
        yield _stack(rows)
    return skip


def _read_columns(path: pathlib.Path, n: Optional[int],
                  skip: int) -> Iterator[_Columns]:
    """Stream the accepted rows of a JSONL file as column chunks,
    skipping the first ``skip`` non-blank lines.

    The file is read in chunks of whole lines.  A chunk whose lines all
    pass :func:`_columns` costs one ``json.loads``; any other chunk goes
    line by line through :func:`_per_line`, so its rows and its first
    error are the reference's, with ``path:line``.
    """
    line_no = 0
    with path.open("rb") as handle:
        for chunk in _byte_chunks(handle):
            lines = _chunk_lines(chunk)
            if lines is not None and skip >= len(lines):
                skip -= len(lines)
            else:
                columns = None if lines is None else _columns(lines[skip:], n)
                if columns is not None:
                    skip = 0
                    yield columns
                else:
                    skip = yield from _per_line(chunk, path, line_no, n, skip)
            line_no += (len(chunk.splitlines()) if b"\r" in chunk
                        else chunk.count(b"\n"))


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

    The file is read in chunks of whole lines of about 256 KiB, each
    parsed with one ``json.loads`` and checked as numpy columns; a
    chunk that fails any check is re-read line by line through
    :func:`decode_jsonl`, so a bad line raises the reference's
    :class:`~repro.errors.TraceError` with its ``path:line``, after the
    events before it.
    """
    if skip < 0:
        raise TraceError(f"skip must be non-negative, got {skip}")
    for columns in _read_columns(pathlib.Path(path), n, skip):
        for rater, target, value, time in zip(*(c.tolist() for c in columns)):
            yield Rating(rater, target, value, time)


#: Largest node id the ledger's ``int64`` columns hold.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _nonblank_line_no(path: pathlib.Path, index: int) -> int:
    """The text-mode line number of the ``index``-th (0-based) non-blank
    line: where the ``index``-th event of a fully validated file is."""
    with path.open(encoding="utf-8") as handle:
        lines = (no for no, line in enumerate(handle, start=1) if line.strip())
        return next(itertools.islice(lines, index, None))


def load_jsonl(path: PathLike, n: Optional[int] = None) -> RatingLedger:
    """Load a whole JSONL event log into a :class:`RatingLedger`.

    The file is read as :func:`iter_jsonl` reads it, in column chunks.
    Every line is validated first, then ``n`` (by default ``max id +
    1`` over the file) bounds the ids: the first event naming an id at
    or above it raises :class:`~repro.errors.UnknownNodeError`.  With
    no ``n``, an id past ``int64`` raises a
    :class:`~repro.errors.TraceError` naming its ``path:line``.  The
    chunks go into the ledger as four columns in one
    :meth:`~repro.ratings.ledger.RatingLedger.extend`.
    """
    path = pathlib.Path(path)
    chunks = list(_read_columns(path, None, 0))
    if chunks:
        raters, targets, values, times = (np.concatenate(c) for c in zip(*chunks))
    else:
        raters = targets = values = np.zeros(0, dtype=np.int64)
        times = np.zeros(0, dtype=np.float64)
    top = max(int(raters.max(initial=0)), int(targets.max(initial=0)))
    if n is None:
        if top > _INT64_MAX:
            first = int(np.argmax((raters > _INT64_MAX) | (targets > _INT64_MAX)))
            rater, target = int(raters[first]), int(targets[first])
            raise TraceError(
                f"{path}:{_nonblank_line_no(path, first)}: node id "
                f"{rater if rater > _INT64_MAX else target} does not fit "
                f"the ledger's int64 columns")
        n = 1 + top
    ledger = RatingLedger(n)
    if top >= n:
        first = int(np.argmax((raters >= n) | (targets >= n)))
        rater, target = int(raters[first]), int(targets[first])
        raise UnknownNodeError(rater if rater >= n else target, n)
    ledger.extend(raters, targets, values, times)
    return ledger
