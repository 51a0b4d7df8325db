"""Durable state files of the service: shard images and JSON documents.

A shard persists its state as a binary state image
(:class:`StateImageStore`): the ``REPM`` container of
:func:`write_image` / :func:`map_image`, which this module alone reads
and writes.  An image captures, at a consistent point (the shard's
queue drained): the epoch number, how many of the current epoch's WAL
events are already folded into the shard counters (``wal_applied``),
and the detector's pair/node counters plus the cumulative reputation
as raw ``int64`` segments.  Restart = map the latest image, then
replay the WAL tail ``[wal_applied, ...)`` — provably reaching the same
counters and verdicts as an uninterrupted run (property-tested).

The coordinator's ``meta.json`` (epoch, published reputations, latest
verdicts) is the epoch commit point, written by :func:`write_json` and
read back by :func:`read_json`.  :class:`SnapshotStore` keeps
position-named JSON documents in a directory; no shard writes one
(the benchmark harness times it).

Every file is written to a temporary name, fsynced and atomically
renamed, so a crash mid-write can never leave a torn file as the
latest one.
"""

from __future__ import annotations

import json
import mmap
import os
import pathlib
import re
import struct
from typing import Dict, List, Optional, Tuple, Union, cast

import numpy as np
import numpy.typing as npt

from repro.errors import RecoveryError, ServiceError

__all__ = ["SnapshotStore", "StateImageStore", "SNAPSHOT_FORMAT",
           "META_FORMAT", "IMAGE_FORMAT", "IMAGE_MAGIC", "write_json",
           "read_json", "persisted_int", "write_image", "map_image"]

#: Concrete array type of every image segment: int64 counts.
IntArray = npt.NDArray[np.int64]

#: Bumped whenever the :class:`SnapshotStore` layout changes
#: incompatibly.
SNAPSHOT_FORMAT = 1

#: Bumped whenever the coordinator meta layout changes incompatibly
#: (see ``repro.service.coordinator``).
META_FORMAT = 1


def write_json(path: pathlib.Path, payload: Dict[str, object]) -> None:
    """Write ``payload`` via tmp + fsync + atomic rename.

    One ``json.dumps`` call: unlike ``json.dump``, it runs the C
    encoder.
    """
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    tmp = path.with_suffix(".json.tmp")
    with tmp.open("w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_json(path: pathlib.Path, what: str,
              version: int) -> Dict[str, object]:
    """Load a JSON object stamped ``format == version``."""
    try:
        with path.open() as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(document, dict):
        raise RecoveryError(f"{what} {path} is not a JSON object")
    if document.get("format") != version:
        raise RecoveryError(
            f"{what} {path} has format {document.get('format')!r}, "
            f"this build reads format {version}"
        )
    return cast(Dict[str, object], document)


def persisted_int(state: Dict[str, object], key: str) -> int:
    """Integer field of a persisted document (bools are not positions)."""
    value = state.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecoveryError(
            f"persisted field {key!r} must be an integer, got {value!r}"
        )
    return value


#: Leading magic of a state image file.
IMAGE_MAGIC = b"REPM"

#: Schema version of the image container.  Readers reject any other
#: value — bump on any layout change.
IMAGE_FORMAT = 1

#: Every array segment (and the data region itself) starts on a
#: 64-byte boundary so mapped views are cache-line aligned.
_IMAGE_ALIGN = 64

#: File layout: magic (4) + u32 format + u64 header length.
_IMAGE_PREFIX = struct.Struct("<4sIQ")


def _align_up(nbytes: int) -> int:
    return (nbytes + _IMAGE_ALIGN - 1) // _IMAGE_ALIGN * _IMAGE_ALIGN


def write_image(path: Union[str, "os.PathLike[str]"],
                arrays: Dict[str, IntArray],
                meta: Dict[str, object]) -> pathlib.Path:
    """Atomically publish named ``int64`` arrays as a mappable image.

    Layout: ``REPM`` magic, little-endian ``u32`` format version,
    ``u64`` header length, a JSON header (array table-of-contents plus
    caller ``meta``), then the raw array segments, each 64-byte
    aligned.  The file is written to a ``.tmp`` sibling, fsynced, and
    ``os.replace``d into place, so readers only ever observe complete
    images — the same publish discipline as :func:`write_json`.
    """
    target = pathlib.Path(path)
    toc: List[Dict[str, object]] = []
    payload: List[IntArray] = []
    offset = 0
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype != np.int64 or arr.ndim != 1:
            raise ServiceError(
                f"image array {name!r} must be a 1-D int64 array, "
                f"got {arr.dtype} with shape {arr.shape}"
            )
        toc.append({"name": name, "dtype": "int64",
                    "count": int(arr.size), "offset": offset})
        payload.append(arr)
        offset = _align_up(offset + arr.size * arr.itemsize)
    header = json.dumps(
        {"arrays": toc, "meta": meta},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    data_start = _align_up(_IMAGE_PREFIX.size + len(header))
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_IMAGE_PREFIX.pack(IMAGE_MAGIC, IMAGE_FORMAT,
                                        len(header)))
        handle.write(header)
        handle.write(b"\0" * (data_start - _IMAGE_PREFIX.size - len(header)))
        written = 0
        for arr in payload:
            handle.write(arr.tobytes())
            nbytes = arr.size * arr.itemsize
            pad = _align_up(written + nbytes) - written - nbytes
            if pad:
                handle.write(b"\0" * pad)
            written = _align_up(written + nbytes)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return target


def _close_quietly(mapping: mmap.mmap) -> None:
    # Views created before a failure keep the buffer exported; leave
    # those to the garbage collector instead of masking the error.
    try:
        mapping.close()
    except BufferError:
        pass


def map_image(path: Union[str, "os.PathLike[str]"]
              ) -> Tuple[Dict[str, IntArray], Dict[str, object], mmap.mmap]:
    """Map a published image: zero-copy array views plus its metadata.

    Returns ``(arrays, meta, mapping)``.  The views are read-only and
    borrow the returned ``mmap`` buffer — keep a reference to the
    mapping for as long as any view is alive.  Multiple processes
    mapping the same file share one physical copy of the page cache.
    """
    source = pathlib.Path(path)
    with open(source, "rb") as handle:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        if mapping.size() < _IMAGE_PREFIX.size:
            raise RecoveryError(f"image {source} is truncated")
        magic, fmt, header_len = _IMAGE_PREFIX.unpack_from(mapping, 0)
        if magic != IMAGE_MAGIC:
            raise RecoveryError(f"{source} is not a state image "
                                f"(bad magic {magic!r})")
        if fmt != IMAGE_FORMAT:
            raise RecoveryError(
                f"image {source} has format version {fmt}, "
                f"this build reads version {IMAGE_FORMAT}"
            )
        header_end = _IMAGE_PREFIX.size + int(header_len)
        if mapping.size() < header_end:
            raise RecoveryError(f"image {source} is truncated")
        header = json.loads(mapping[_IMAGE_PREFIX.size:header_end]
                            .decode("utf-8"))
        data_start = _align_up(header_end)
        arrays: Dict[str, IntArray] = {}
        for entry in cast(List[Dict[str, object]], header["arrays"]):
            name = cast(str, entry["name"])
            count = int(cast(int, entry["count"]))
            start = data_start + int(cast(int, entry["offset"]))
            if mapping.size() < start + count * 8:
                raise RecoveryError(
                    f"image {source} is truncated in segment {name!r}")
            arrays[name] = np.frombuffer(mapping, dtype=np.int64,
                                         count=count, offset=start)
        meta = cast(Dict[str, object], header["meta"])
    except Exception:
        _close_quietly(mapping)
        raise
    return arrays, meta, mapping


def _position(state: Dict[str, object]) -> Tuple[int, int]:
    epoch = state["epoch"]
    wal_applied = state["wal_applied"]
    if not isinstance(epoch, int) or not isinstance(wal_applied, int):
        raise RecoveryError(
            f"persisted state needs integer epoch/wal_applied, got "
            f"{epoch!r}/{wal_applied!r}"
        )
    return epoch, wal_applied


class _PositionStore:
    """Files named by ``(epoch, wal_applied)`` in one directory, pruned
    to the ``keep`` most recent."""

    prefix = ""
    suffix = ""

    def __init__(self, directory: Union[str, pathlib.Path],
                 keep: int = 3) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        self._pattern = re.compile(
            rf"^{self.prefix}-(\d{{8}})-(\d{{10}}){re.escape(self.suffix)}$"
        )

    def path_for(self, epoch: int, wal_applied: int) -> pathlib.Path:
        return self.directory / (
            f"{self.prefix}-{epoch:08d}-{wal_applied:010d}{self.suffix}"
        )

    def list(self) -> List[Tuple[int, int, pathlib.Path]]:
        """All files as ``(epoch, wal_applied, path)``, ascending.

        The greatest position is the latest — exactly the write order,
        because the service only persists advancing positions.
        """
        out: List[Tuple[int, int, pathlib.Path]] = []
        for entry in self.directory.iterdir():
            match = self._pattern.match(entry.name)
            if match:
                out.append((int(match.group(1)), int(match.group(2)), entry))
        return sorted(out)

    def _prune(self) -> None:
        for _, _, path in self.list()[: -self.keep]:
            path.unlink(missing_ok=True)


class SnapshotStore(_PositionStore):
    """Writes, lists, prunes and loads JSON snapshot files in one
    directory."""

    prefix = "snapshot"
    suffix = ".json"

    def save(self, state: Dict[str, object]) -> pathlib.Path:
        """Atomically persist ``state`` and prune old snapshots.

        ``state`` must carry integer ``epoch`` and ``wal_applied`` keys;
        the pair orders snapshots and names the file.
        """
        final = self.path_for(*_position(state))
        write_json(final, {**state, "format": SNAPSHOT_FORMAT})
        self._prune()
        return final

    def load_latest(self) -> Optional[Dict[str, object]]:
        """The most recent snapshot's state, or ``None`` if there is none."""
        snapshots = self.list()
        if not snapshots:
            return None
        return read_json(snapshots[-1][2], "snapshot", SNAPSHOT_FORMAT)


class StateImageStore(_PositionStore):
    """A durable shard's state: one image per persisted position.

    One ``image-EEEEEEEE-WWWWWWWWWW.repm`` file per position: the
    :func:`write_image` container (atomic tmp + fsync + rename) of the
    detector's pair/node counters and the cumulative reputation as raw
    ``int64`` segments.  Recovery maps the latest image
    (``mmap`` + ``np.frombuffer``) instead of parsing a document.  A
    ``.repm.tmp`` left by a crash before the rename never matches the
    file pattern, so it is ignored.
    """

    prefix = "image"
    suffix = ".repm"

    def save(self, arrays: Dict[str, IntArray],
             meta: Dict[str, object]) -> pathlib.Path:
        """Atomically publish an image and prune old ones.

        ``meta`` must carry integer ``epoch`` and ``wal_applied`` keys;
        the pair orders images and names the file.
        """
        final = write_image(self.path_for(*_position(meta)), arrays, meta)
        self._prune()
        return final

    def load_latest(self) -> Optional[Tuple[Dict[str, IntArray],
                                            Dict[str, object], mmap.mmap]]:
        """Map the most recent image, or ``None`` if there is none.

        Returns ``(arrays, meta, mapping)`` — the arrays are read-only
        views into ``mapping``; hold the mapping as long as any view is
        alive.  Container-level corruption surfaces as
        :class:`~repro.errors.RecoveryError`.
        """
        images = self.list()
        if not images:
            return None
        path = images[-1][2]
        try:
            return map_image(path)
        except Exception as exc:
            raise RecoveryError(f"cannot map image {path}: {exc}") from None
