"""mtime+content-keyed cache for the reprolint analysis pass.

The whole-program pass parses and summarizes every file under
``src/repro`` on each run; for pre-commit use that cost must not be
paid twice for unchanged files.  :class:`AnalysisCache` persists the
per-file products — raw findings and the serialized
:class:`~repro.analysis.callgraph.ModuleSummary` — keyed by
``(mtime_ns, size)`` with a content-hash fallback, so a ``touch``
without an edit re-keys instead of re-parsing.

Invalidation is deliberately coarse where correctness wants it:

* the whole cache is discarded when its signature changes.  The
  signature names the active rules (``--rules`` subsets get their own,
  so a full run never reads a subset's cache) and carries a SHA-256 of
  the ``repro.analysis`` package's own ``.py`` files
  (:func:`analysis_digest`), so any edit to a rule, the summarizer or
  the dataflow layer discards findings the old code produced;
* a file entry is discarded when neither its ``(mtime_ns, size)`` nor
  its SHA-256 matches the file on disk.

Only *per-file* products are cached.  The call-graph link and the
whole-program rules always re-run — they are cheap relative to
parsing, and caching them would make invalidation cross-file.

The cache document is one JSON file inside ``--cache-dir`` (default
``.reprolint-cache/``), written atomically (temp file + ``os.replace``)
so an interrupted lint can never corrupt it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Optional

__all__ = ["AnalysisCache", "analysis_digest"]

_CACHE_FILE = "reprolint-cache.json"


def analysis_digest() -> str:
    """SHA-256 over every ``.py`` file of the analysis package.

    Relative paths are hashed alongside the bytes, so renaming or
    adding a rule module changes the digest as well as editing one.
    """
    root = pathlib.Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class AnalysisCache:
    """Load-once / save-once per-file result cache for one lint run."""

    def __init__(self, cache_dir: pathlib.Path, rules_signature: str):
        self.path = pathlib.Path(cache_dir) / _CACHE_FILE
        self.rules_signature = rules_signature
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        if (data.get("tool") != "reprolint-cache"
                or data.get("rules") != self.rules_signature):
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    # ------------------------------------------------------------------
    def lookup(self, module_path: str,
               path: pathlib.Path) -> Optional[Dict[str, Any]]:
        """The cached record for ``module_path``, or None on a miss.

        Fast path compares ``(mtime_ns, size)`` without reading the
        file; on mismatch the content hash decides, so builds that
        restore mtimes (or ``touch`` without an edit) still hit.
        """
        entry = self._entries.get(module_path)
        if entry is None:
            self.misses += 1
            return None
        try:
            stat = path.stat()
        except OSError:
            self.misses += 1
            return None
        if (entry.get("mtime_ns") == stat.st_mtime_ns
                and entry.get("size") == stat.st_size):
            self.hits += 1
            record = entry.get("record")
            return record if isinstance(record, dict) else None
        try:
            digest = _sha256(path.read_bytes())
        except OSError:
            self.misses += 1
            return None
        if entry.get("sha256") == digest:
            entry["mtime_ns"] = stat.st_mtime_ns
            entry["size"] = stat.st_size
            self._dirty = True
            self.hits += 1
            record = entry.get("record")
            return record if isinstance(record, dict) else None
        self.misses += 1
        return None

    def store(self, module_path: str, path: pathlib.Path, source: str,
              record: Dict[str, Any]) -> None:
        try:
            stat = path.stat()
            mtime_ns, size = stat.st_mtime_ns, stat.st_size
        except OSError:
            mtime_ns, size = 0, len(source.encode("utf-8"))
        self._entries[module_path] = {
            "mtime_ns": mtime_ns,
            "size": size,
            "sha256": _sha256(source.encode("utf-8")),
            "record": record,
        }
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache (no-op when nothing changed)."""
        if not self._dirty:
            return
        document = {
            "tool": "reprolint-cache",
            "rules": self.rules_signature,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(document, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            # A read-only checkout must not fail the lint.
            try:
                tmp.unlink()
            except OSError:
                pass


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
