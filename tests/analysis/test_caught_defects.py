"""Regression fixtures: every real defect reprolint has caught.

Each source below is a minimal reproduction of a defect the linter
found in this repository, rebuilt from the change that fixed it, and
each test asserts that the rule which owns that defect today still
flags it.  Together they are the evidence that retiring a rule or a
check loses no defect the linter has caught.

The last section holds *seeded mutations*: a defect planted in the
current tree's own source that the test-suite does not catch but a
rule does.  They are the evidence for keeping a rule that has no real
defect on record.
"""

import pytest

from repro.analysis import lint_source
from repro.analysis.engine import default_package_root

# -- reprolint's first run --------------------------------------------------

#: The bench runner persisted results with a raw, unversioned write.
UNVERSIONED_BENCH_WRITE = '''
import json
import pathlib


def write_result(doc, out_dir):
    path = pathlib.Path(out_dir) / f"BENCH_{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\\n")
    return path
'''

#: ``_recover`` wrote shared state with no lock and no ``_locked``
#: suffix; here a lock-free caller reaches it.
RECOVER_WITHOUT_LOCK = '''
import threading


class DetectionService:
    def __init__(self, snapshots):
        self._ingest_lock = threading.RLock()
        self.snapshots = snapshots
        self._epoch = 0
        self._started = False

    def start(self):
        self._recover()
        with self._ingest_lock:
            self._started = True

    def _recover(self):
        state = self.snapshots.load_latest()
        if state is not None:
            self._epoch = int(state["epoch"])

    def end_period(self):
        with self._ingest_lock:
            self._epoch += 1
'''

#: ``find_accomplices`` swept the dense planes without charging ops.
UNCHARGED_ACCOMPLICE_SWEEP = '''
import numpy as np


def find_accomplices(matrix, confirmed, thresholds):
    confirmed_set = set(confirmed)
    if not confirmed_set:
        return frozenset()
    eff = matrix.effective_counts
    with np.errstate(invalid="ignore"):
        a = np.divide(matrix.positives, eff)
    mutual = (eff >= thresholds.t_n) & (a >= thresholds.t_a)
    return frozenset(int(i) for i in np.flatnonzero(mutual.any(axis=0)))
'''

# -- whole-program analysis -------------------------------------------------

#: The baseline writer rewrote its document in place: a crash mid-write
#: would leave a torn file the gate could no longer read.
NON_ATOMIC_BASELINE_WRITE = '''
import json


class Baseline:
    def __init__(self, entries):
        self.entries = entries

    def save(self, path):
        doc = {"tool": "reprolint", "version": 1, "findings": self.entries}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\\n",
                        encoding="utf-8")
        return path
'''

# -- dataflow layer ---------------------------------------------------------

_COORDINATOR = '''
import threading

import numpy as np


class DetectionService:
    def __init__(self, config, snapshots, wal, shards):
        self._ingest_lock = threading.RLock()
        self.config = config
        self.snapshots = snapshots
        self.wal = wal
        self.shards = shards
        self._epoch = 0
        self._epoch_events = 0
        self._total_events = 0
        self._published = np.zeros(config.n)
        self._latest_verdicts = {}
        self._history = []
        self._ops_baselines = [{} for _ in shards]
'''

_PROCESS = '''
import threading

import numpy as np


class ProcessDetectionService:
    def __init__(self, config, workers):
        self._ingest_lock = threading.RLock()
        self.config = config
        self.workers = workers
        self._epoch = 0
        self._published = np.zeros(config.n)
        self._latest_verdicts = {}
        self._history = []
        self._ops_baselines = [{} for _ in workers]
'''

#: The five commit paths that could raise between shared-state writes
#: and leave the service torn (new epoch, old verdicts, …).
TORN_STATE_COMMITS = {
    "coordinator-recover-snapshot": _COORDINATOR + '''
    def _recover_locked(self):
        state = self.snapshots.load_latest()
        if state is not None:
            self._epoch = int(state["epoch"])
            self._published = np.asarray(state["published"], dtype=float)
            self._latest_verdicts = dict(state["latest_verdicts"])
''',
    "coordinator-recover-wal-tail": _COORDINATOR + '''
    def _recover_locked(self):
        self._epoch = self.snapshots.latest_epoch()
        replayed = 0
        for rating in self.wal.replay(self._epoch, n=self.config.n):
            self.shards[rating.target % len(self.shards)].apply([rating])
            replayed += 1
        self._epoch_events += replayed
        self._total_events += replayed
''',
    "coordinator-end-period": _COORDINATOR + '''
    def end_period(self, result):
        with self._ingest_lock:
            for shard in self.shards:
                self._ops_baselines[shard.shard_id] = shard.call("ops")
            self._published = result.reputation
            self._latest_verdicts = result.to_dict()
            self._epoch += 1
''',
    "process-load-meta": _PROCESS + '''
    def _load_meta_locked(self, meta):
        self._epoch = meta["epoch"]
        self._published = np.asarray(meta["published"], dtype=float)
        self._latest_verdicts = dict(meta["latest_verdicts"])
''',
    "process-end-period": _PROCESS + '''
    def end_period(self, result):
        with self._ingest_lock:
            for shard_id, worker in enumerate(self.workers):
                self._ops_baselines[shard_id] = worker.call("ops")
            self._published = result.reputation
            self._latest_verdicts = result.to_dict()
            self._epoch += 1
''',
}

#: A spawn that failed mid-loop orphaned the workers (and their pipes)
#: already started.
LEAKY_SPAWN_LOOP = '''
import multiprocessing


def spawn_workers(num_shards, target):
    ctx = multiprocessing.get_context("fork")
    conns = []
    for shard_id in range(num_shards):
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=target, args=(shard_id, child))
        proc.start()
        if parent.recv() != "ready":
            raise RuntimeError(f"shard {shard_id} failed to recover")
        conns.append(parent)
    return conns
'''

# -- lockset layer ----------------------------------------------------------

#: Queries read published state lock-free while end_period rewrote it
#: under the ingest lock: a reader could see a new epoch with old
#: verdicts.
LOCK_FREE_QUERIES = '''
import threading


class DetectionService:
    def __init__(self):
        self._ingest_lock = threading.RLock()
        self._epoch = 0
        self._latest_verdicts = {}

    def end_period(self, verdicts):
        with self._ingest_lock:
            self._latest_verdicts = verdicts
            self._epoch += 1

    @property
    def epoch(self):
        return self._epoch

    def suspects(self):
        return dict(self._latest_verdicts)
'''


def _flagged(source, module_path, rule):
    """``(line, message)`` of every ``rule`` finding in ``source``."""
    result = lint_source(source, module_path, only=[rule])
    assert result.errors == []
    return [(f.line, f.message) for f in result.findings if f.rule == rule]


class TestFirstRunDefects:
    def test_unversioned_bench_result_write_is_rep005(self):
        [(line, message)] = _flagged(UNVERSIONED_BENCH_WRITE,
                                     "bench/runner.py", "REP005")
        assert line == 8 and "schema" in message

    def test_recover_without_lock_is_rep011(self):
        flagged = _flagged(RECOVER_WITHOUT_LOCK,
                           "service/coordinator.py", "REP011")
        assert [line for line, _ in flagged] == [20]
        assert "'_epoch'" in flagged[0][1]

    def test_uncharged_accomplice_sweep_is_rep002(self):
        flagged = _flagged(UNCHARGED_ACCOMPLICE_SWEEP,
                           "core/accomplices.py", "REP002")
        assert [line for line, _ in flagged] == [9, 11]
        assert all("find_accomplices" in message for _, message in flagged)


class TestWholeProgramDefects:
    def test_non_atomic_baseline_write_is_rep007(self):
        [(line, message)] = _flagged(NON_ATOMIC_BASELINE_WRITE,
                                     "service/baseline.py", "REP007")
        assert line == 11 and "'save'" in message


class TestDataflowDefects:
    @pytest.mark.parametrize("name", sorted(TORN_STATE_COMMITS))
    def test_torn_state_commit_is_rep008(self, name):
        module_path = ("service/process.py" if name.startswith("process")
                       else "service/coordinator.py")
        flagged = _flagged(TORN_STATE_COMMITS[name], module_path, "REP008")
        assert flagged
        assert all("between shared-state writes" in message
                   for _, message in flagged)

    def test_leaky_spawn_loop_is_rep009(self):
        flagged = _flagged(LEAKY_SPAWN_LOOP, "service/process.py", "REP009")
        assert [line for line, _ in flagged] == [9, 9]
        assert any("'parent'" in message for _, message in flagged)


class TestLocksetDefects:
    def test_lock_free_queries_are_rep011(self):
        flagged = _flagged(LOCK_FREE_QUERIES,
                           "service/coordinator.py", "REP011")
        attrs = sorted(message.split("'")[1] for _, message in flagged)
        assert attrs == ["_epoch", "_latest_verdicts"]


# -- seeded mutations -------------------------------------------------------


def _mutated(module_path, rule, old, new):
    """The tree's ``module_path``, clean under ``rule``, with its one
    ``old`` replaced by ``new``."""
    source = (default_package_root() / module_path).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"mutation site moved in {module_path}"
    assert _flagged(source, module_path, rule) == []
    return source.replace(old, new)


class TestSeededMutations:
    def test_global_rng_in_an_experiment_is_rep004(self):
        """Every figure must be a pure function of its seed; the suite
        only compares figures against themselves, so a draw from numpy's
        global RNG passes every test but the lint gate."""
        source = _mutated(
            "experiments/distributed.py", "REP004",
            "r, t = rng.choice(system.n, size=2, replace=False)",
            "r, t = np.random.choice(system.n, size=2, replace=False)",
        )
        [(line, message)] = _flagged(source, "experiments/distributed.py",
                                     "REP004")
        assert line == 27 and "np.random.choice" in message

    def test_self_deadlocking_repr_is_rep006(self):
        """``OpCounter.__repr__`` is excluded from coverage, so a repr
        that re-takes the plain lock through ``snapshot()`` deadlocks
        only when someone prints a counter."""
        source = _mutated(
            "util/counters.py", "REP006",
            '''        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
''',
            '''        with self._lock:
            inner = ", ".join(f"{k}={v}"
                              for k, v in sorted(self.snapshot().items()))
''',
        )
        flagged = _flagged(source, "util/counters.py", "REP006")
        assert flagged
        assert all("OpCounter._lock" in message and "self-deadlock" in message
                   for _, message in flagged)
