"""The benchmark result schema and the environment fingerprint.

Every harness run emits one JSON document per benchmark
(``BENCH_<name>.json`` at the repository root).  The schema is
deliberately small and hand-validated — no external JSON-schema
dependency — because the regression gate and CI both need to *trust*
these files, and a loud validation error beats a silently malformed
trajectory.

Document layout (``SCHEMA_VERSION`` = 2)::

    {
      "schema_version": 2,
      "name": "prop42_optimized_scaling",     # registry name
      "description": "...",                   # first docstring line
      "tiers": ["smoke", "full"],
      "config": {...},                        # the config run() received
      "trials": 3,
      "wall_clock": {                         # seconds, over `trials` runs
        "unit": "seconds",
        "per_trial": [...], "mean": f, "median": f,
        "min": f, "max": f, "stdev": f
      },
      "ops": {...} | null,                    # deterministic OpCounter totals
      "accuracy": {...} | null,               # precision/recall where defined
      "memory": {...} | null,                 # v2: peak-memory measurements
                                              # reported by the bench (bytes)
      "checks": {"name": bool, ...},          # shape assertions
      "payload": {...},                       # full run() return value
      "growth_gate": {...},                   # only on scaling benches when
                                              # the cross-bench gate ran
      "environment": {
        "python": "3.12.3", "implementation": "CPython",
        "numpy": "1.26.4", "platform": "...", "cpu_count": 8,
        "git_sha": "abc123..." | null, "repro_version": "1.0.0"
      },
      "created_utc": 1754500000.0
    }

``ops`` is the load-bearing half of the trajectory: operation counts
are *deterministic* (same config, same counts, any machine), so an ops
regression is a real algorithmic regression, never timer noise.

Version history
---------------
* **1** — initial layout.
* **2** — adds the optional top-level ``memory`` block (peak-memory
  measurements for benches that track allocation, e.g. the sparse
  scaling bench).  Version-1 documents remain valid: readers accept
  both versions and treat the new fields as absent.  Documents written
  while the repo had several matrix engines also carry an
  ``environment.matrix_backend`` key; readers ignore it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Optional, Sequence

from repro._version import __version__
from repro.errors import BenchError

__all__ = [
    "SCHEMA_VERSION",
    "ACCEPTED_SCHEMA_VERSIONS",
    "RESULT_PREFIX",
    "environment_fingerprint",
    "wall_clock_stats",
    "result_filename",
    "validate_result",
    "dump_result",
    "load_result",
]

SCHEMA_VERSION = 2

#: Older schema versions still accepted by :func:`validate_result` /
#: :func:`load_result` — committed ``BENCH_*.json`` baselines are not
#: invalidated by a version bump.
ACCEPTED_SCHEMA_VERSIONS = frozenset({1, SCHEMA_VERSION})

#: Result files are ``BENCH_<name>.json`` so the perf trajectory is
#: visible (and diffable) at the repository root.
RESULT_PREFIX = "BENCH_"


def environment_fingerprint(repo_dir: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Describe the machine/toolchain a result was measured on.

    ``git_sha`` is best-effort: ``None`` outside a git checkout (e.g.
    an installed package running in a scratch directory).
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(repo_dir),
        "repro_version": __version__,
    }


def _git_sha(repo_dir: Optional[pathlib.Path]) -> Optional[str]:
    cwd = str(repo_dir) if repo_dir is not None else None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def wall_clock_stats(per_trial: Sequence[float]) -> Dict[str, Any]:
    """Collapse per-trial wall-clock seconds into the schema's stats block."""
    if not per_trial:
        raise BenchError("wall_clock_stats requires at least one trial")
    times = [float(t) for t in per_trial]
    return {
        "unit": "seconds",
        "per_trial": times,
        "mean": statistics.fmean(times),
        "median": statistics.median(times),
        "min": min(times),
        "max": max(times),
        "stdev": statistics.stdev(times) if len(times) > 1 else 0.0,
    }


def result_filename(name: str) -> str:
    """The on-disk filename for benchmark ``name``."""
    return f"{RESULT_PREFIX}{name}.json"


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
_REQUIRED_TOP = {
    "schema_version": int,
    "name": str,
    "tiers": list,
    "config": dict,
    "trials": int,
    "wall_clock": dict,
    "checks": dict,
    "payload": dict,
    "environment": dict,
}
_REQUIRED_WALL = {"unit", "per_trial", "mean", "median", "min", "max", "stdev"}
_REQUIRED_ENV = {"python", "implementation", "numpy", "platform", "cpu_count",
                 "git_sha", "repro_version"}


def validate_result(doc: Any) -> List[str]:
    """Schema-check one result document; return the list of violations.

    An empty list means the document is valid.  Use
    ``assert not validate_result(doc)`` in tests, or raise on the list
    in pipeline code.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key, typ in _REQUIRED_TOP.items():
        if key not in doc:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(doc[key], typ):
            errors.append(
                f"{key!r} must be {typ.__name__}, got {type(doc[key]).__name__}"
            )
    if errors:
        return errors
    if doc["schema_version"] not in ACCEPTED_SCHEMA_VERSIONS:
        errors.append(
            f"schema_version {doc['schema_version']} not in "
            f"{sorted(ACCEPTED_SCHEMA_VERSIONS)}"
        )
    wall = doc["wall_clock"]
    missing = _REQUIRED_WALL - set(wall)
    if missing:
        errors.append(f"wall_clock missing {sorted(missing)}")
    else:
        if not isinstance(wall["per_trial"], list) or not wall["per_trial"]:
            errors.append("wall_clock.per_trial must be a non-empty list")
        elif len(wall["per_trial"]) != doc["trials"]:
            errors.append(
                f"wall_clock has {len(wall['per_trial'])} trials, "
                f"document says {doc['trials']}"
            )
        for stat in ("mean", "median", "min", "max"):
            value = wall.get(stat)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"wall_clock.{stat} must be a non-negative number")
    missing_env = _REQUIRED_ENV - set(doc["environment"])
    if missing_env:
        errors.append(f"environment missing {sorted(missing_env)}")
    for name, ok in doc["checks"].items():
        if not isinstance(ok, bool):
            errors.append(f"checks[{name!r}] must be a bool")
    for key in ("ops", "accuracy", "memory"):
        if key in doc and doc[key] is not None and not isinstance(doc[key], dict):
            errors.append(f"{key!r} must be an object or null")
    return errors


def dump_result(doc: Dict[str, Any], path: pathlib.Path) -> pathlib.Path:
    """Validate and persist one result document (the versioned writer).

    Every ``BENCH_*.json`` write in the repository goes through here
    (REP005): the document is schema-checked *before* it reaches disk,
    so a malformed result can never silently poison the committed
    perf-trajectory baselines.
    """
    problems = validate_result(doc)
    if problems:
        raise BenchError(
            f"refusing to write invalid benchmark result to {path}: "
            + "; ".join(problems)
        )
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_result(path: pathlib.Path) -> Dict[str, Any]:
    """Read and validate one ``BENCH_*.json`` file."""
    path = pathlib.Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark result {path}: {exc}") from exc
    problems = validate_result(doc)
    if problems:
        raise BenchError(
            f"{path} fails schema validation: " + "; ".join(problems)
        )
    return doc
