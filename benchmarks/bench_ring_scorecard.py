"""Ring-detection scorecard: precision/recall over group-attack scenarios.

Not a paper figure — the paper's evaluation stops at pair collusion
(C5).  This scorecard measures the `repro.rings` subsystem against the
group-shaped attack catalogue in `repro.p2p.collusion`: ring-size-k
(k in {2, 3, 4, 6}), hub-and-spoke, and the two C4 evasions
(time-diluted turns, rating spread), each mixed with honest background
traffic, plus a pure-pair scenario and an attack-free control.

Per scenario the workload is generated into a ledger (attack strategy
cycles + seeded honest traffic where colluders serve badly: outside
positive fraction ~0.2, honest ~0.8), then evaluated twice:

* the batch pair detector (`OptimizedCollusionDetector`) — the paper
  baseline, used both for the no-regression anchor (pure-pair
  scenarios must match exactly) and to demonstrate which attacks are
  structurally invisible to pairs;
* `SuspectGraph.from_matrix` + `RingDetector` — the subject under
  measurement, scored on membership precision/recall/F1.

Operation counters are deterministic (fixed seeds, counted units).
``ops`` records each ``scenario:counter`` plus their sum,
``total_operations``, which ``repro bench compare --metric ops
--max-regress 0%`` gates exactly.
"""

import numpy as np

from repro.bench.adapters import bench_main, merge_config
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.p2p.collusion import (
    HubSpokeCollusion,
    PairCollusion,
    RatingSpreadCollusion,
    RingCollusion,
    TimeDilutedRing,
)
from repro.ratings.ledger import RatingLedger
from repro.rings import RingDetector, SuspectGraph
from repro.util.counters import OpCounter

N = 160
EVENTS = 6000                 # honest background ratings per scenario
CYCLES = 8                    # attack query cycles (evasions override)
RATE = 10                     # ratings per member per partner per cycle
GOOD_HONEST = 0.8             # P(+1) for honest-target ratings
GOOD_COLLUDER = 0.2           # P(+1) for colluder-target ratings (C2)
THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {"n": 120, "events": 3000, "seed": 0}

DEFAULT_CONFIG = {"n": N, "events": EVENTS, "rate": RATE, "seed": 0}


def scenario_catalogue(rate):
    """``(name, strategy, attack_cycles)`` rows, colluder ids from 4 up.

    Cycle counts are sized against ``T_N = 40`` and the graph's default
    ``edge_floor = 0.5``: the visible attacks put 80 ratings on each
    boost edge (>= T_N); time-diluted turns put 30 (pair-blind, above
    the floor of 20); rating spread puts exactly 20 (the floor).
    """
    return [
        ("pairs", PairCollusion.from_ids(list(range(4, 12)), rate), CYCLES),
        ("ring_2", RingCollusion([4, 5], rate), CYCLES),
        ("ring_3", RingCollusion([4, 5, 6], rate), CYCLES),
        ("ring_4", RingCollusion([4, 5, 6, 7], rate), CYCLES),
        ("ring_6", RingCollusion(list(range(4, 10)), rate), CYCLES),
        ("hub_spoke", HubSpokeCollusion(4, [5, 6, 7, 8], rate), CYCLES),
        ("time_diluted",
         TimeDilutedRing([4, 5, 6, 7], rate, duty_cycle=4), 12),
        ("rating_spread",
         RatingSpreadCollusion(list(range(4, 10)), rate), 10),
        ("honest", None, 0),
    ]


def build_matrix(strategy, attack_cycles, n, events, seed):
    """One scenario's period matrix: attack cycles + honest traffic."""
    ledger = RatingLedger(n)
    colluders = sorted(strategy.members()) if strategy is not None else []
    for cycle in range(attack_cycles):
        strategy.act(ledger, float(cycle))
    rng = np.random.default_rng(seed)
    raters = rng.integers(0, n, size=events)
    targets = rng.integers(0, n, size=events)
    guard = np.asarray(colluders if colluders else [-1])
    keep = (raters != targets) & ~np.isin(raters, guard)
    raters, targets = raters[keep], targets[keep]
    quality = np.where(np.isin(targets, guard), GOOD_COLLUDER, GOOD_HONEST)
    values = np.where(rng.random(raters.size) < quality, 1, -1)
    ledger.extend(raters.tolist(), targets.tolist(), values.tolist(),
                  [float(attack_cycles)] * int(raters.size))
    return ledger.to_matrix(), frozenset(colluders)


def score(predicted, truth):
    """Membership precision/recall/F1 (empty-vs-empty scores 1.0)."""
    if not predicted and not truth:
        return 1.0, 1.0, 1.0
    tp = len(predicted & truth)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth) if truth else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def evaluate(name, strategy, attack_cycles, cfg):
    """Run one scenario through both detectors; returns the row dict."""
    matrix, truth = build_matrix(strategy, attack_cycles,
                                 cfg["n"], cfg["events"], cfg["seed"])
    batch = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
    ops = OpCounter()
    graph = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS, ops=ops)
    detector = RingDetector(THRESHOLDS, ops=ops)
    report = detector.detect(graph)
    predicted = set(report.group_members())
    precision, recall, f1 = score(predicted, set(truth))
    return {
        "name": name,
        "truth": sorted(truth),
        "predicted": sorted(predicted),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "groups": [list(g.members) for g in report.groups],
        "ring_pairs": sorted(report.pair_set()),
        "batch_pairs": sorted(batch.pair_set()),
        "ops": ops.snapshot(),
    }


def run(config=None):
    """Harness entrypoint: the per-scenario ring-detection scorecard."""
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    rows = [evaluate(name, strategy, cycles, cfg)
            for name, strategy, cycles in scenario_catalogue(cfg["rate"])]
    by_name = {row["name"]: row for row in rows}

    accuracy = {
        row["name"]: {"precision": row["precision"],
                      "recall": row["recall"],
                      "f1": row["f1"]}
        for row in rows
    }
    ops = {}
    for row in rows:
        for counter, value in row["ops"].items():
            ops[f"{row['name']}:{counter}"] = value
    # The single number `repro bench compare --metric ops` gates.
    ops["total_operations"] = sum(ops.values())

    evasions = ("time_diluted", "rating_spread")
    attacks = [row for row in rows if row["name"] != "honest"]
    checks = {
        # No-regression anchor: on pure pair workloads the ring pass
        # reproduces the batch pair detector's suspect set exactly.
        "pure_pair_matches_batch": all(
            by_name[name]["ring_pairs"] == by_name[name]["batch_pairs"]
            and by_name[name]["batch_pairs"]
            for name in ("pairs", "ring_2")
        ),
        "evasions_invisible_to_pair_detector": all(
            not by_name[name]["batch_pairs"] for name in evasions
        ),
        "evasions_recovered_by_rings": all(
            by_name[name]["precision"] == 1.0
            and by_name[name]["recall"] == 1.0
            for name in evasions
        ),
        "honest_traffic_clean": (
            not by_name["honest"]["predicted"]
            and not by_name["honest"]["ring_pairs"]
        ),
        "all_attacks_fully_recovered": all(
            row["recall"] == 1.0 and row["precision"] == 1.0
            for row in attacks
        ),
    }
    return {
        "kind": "rings",
        "n": cfg["n"],
        "events": cfg["events"],
        "scenarios": [{key: row[key] for key in
                       ("name", "truth", "predicted", "groups",
                        "ring_pairs", "batch_pairs")}
                      for row in rows],
        "accuracy": accuracy,
        "ops": ops,
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


def test_scorecard(benchmark):
    payload = benchmark(run, SMOKE_CONFIG)
    assert payload["checks_pass"], payload["checks"]


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
