"""Pair-incremental screen vs a full re-screen: O(touched) scaling.

The Section 4.2 streaming detector (``OnlineCollusionDetector``)
maintains each target's Formula-(2) terms in O(1) per ``observe`` and
re-evaluates only the (suspect, booster) pairs whose band actually
flipped.  The comparator is a second detector fed the same stream that
re-screens every hot target from the raw counters each round
(``full_screen()``) — the O(hot targets) cost the incremental screen
exists to avoid, and the reference its verdicts must equal.

Workload: ``n`` background targets, each boosted past ``t_n`` by its
own high booster, plus one planted mutual colluding pair (the
conviction canary) and one *churner* node whose reputation oscillates
around ``t_r`` — flipping one high bit per round, which the
incremental screen must propagate to the targets the churner rates.
Each round touches ``k`` fresh targets (one critic rating each,
flipping exactly ``k`` bands) and then evaluates: the incremental
detector peeks (``end_period(reset=False)``), the comparator runs
``full_screen()``.  Both detectors see byte-identical streams; their
reports must stay identical while the evaluated-pair counts
(``pact_eval``) diverge: O(touched) for the incremental screen versus
O(hot targets) for the full re-screen.

Checks: identical reports every round, the planted pair convicted
throughout, and >= 10x fewer ``pact_eval`` ops at the <= 1% touched
point.  All op counts are deterministic and gated by
``repro bench compare --metric ops --max-regress 0%``.
"""

import time

from repro.bench.adapters import bench_main, merge_config
from repro.core.model import DetectionReport, join_half_verdicts
from repro.core.online import OnlineCollusionDetector
from repro.core.thresholds import DetectionThresholds

#: Fast-CI tier membership and its shrunk workload (docs/BENCHMARKS.md).
TIERS = ("smoke", "full")
SMOKE_CONFIG = {"n_targets": 300, "touched": [3, 30, 150]}

DEFAULT_CONFIG = {"n_targets": 2_000, "touched": [20, 200, 1_000]}

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.6, t_n=20)

BOOST = 60          # planted mutual boosts (>= 3 * t_n)
CRITIC_NEGS = 8     # keeps the planted pair inside the Formula-(2) band
MAX_ROUNDS = 4


def node_ids(n):
    """Universe layout: targets, their boosters, and the named extras."""
    return {
        "churner": 2 * n,
        "churn_rater": 2 * n + 1,
        "planted_a": 2 * n + 2,
        "planted_b": 2 * n + 3,
        "critic": 2 * n + 4,
        "seeder": 2 * n + 5,
        "toucher": 2 * n + 6,
        "universe": 2 * n + 7,
    }


def build_detector(n):
    """One warmed-up detector: n hot background targets, planted pair,
    churner at reputation t_r (high)."""
    ids = node_ids(n)
    t_n = THRESHOLDS.t_n
    detector = OnlineCollusionDetector(ids["universe"], THRESHOLDS)
    for target in range(n):
        booster = n + target
        # Hot pair at exactly t_n, all positive: R == upper bound, so
        # the band starts False and the first critic rating flips it.
        detector.observe(booster, target, 1, count=t_n)
        # Boosters must be high-reputed to count as members.
        detector.observe(ids["seeder"], booster, 1)
    a, b = ids["planted_a"], ids["planted_b"]
    detector.observe(a, b, 1, count=BOOST)
    detector.observe(b, a, 1, count=BOOST)
    detector.observe(ids["critic"], a, -1, count=CRITIC_NEGS)
    detector.observe(ids["critic"], b, -1, count=CRITIC_NEGS)
    detector.observe(ids["churn_rater"], ids["churner"], 1)
    return detector


def full_screen_report(detector):
    """The comparator's evaluation: every hot target re-screened from
    the raw counters, joined into a report like ``end_period``'s."""
    high = detector.period_reputation() >= THRESHOLDS.t_r
    report = DetectionReport(method="full_screen",
                             examined_nodes=int(high.sum()))
    for pair in join_half_verdicts(detector.full_screen()):
        report.add(pair)
    return report


#: How each detector evaluates a round.
EVALUATE = {
    "incremental": lambda detector: detector.end_period(reset=False),
    "full_screen": full_screen_report,
}


def reports_identical(left, right):
    return (left.pair_set() == right.pair_set()
            and left.examined_nodes == right.examined_nodes)


def run_sweep(n, k):
    """Both detectors through identical rounds; per-detector costs."""
    ids = node_ids(n)
    modes = {name: build_detector(n) for name in EVALUATE}
    planted = (min(ids["planted_a"], ids["planted_b"]),
               max(ids["planted_a"], ids["planted_b"]))
    # Establish the incremental caches: the first evaluation screens
    # every hot target in both detectors, so only the *rounds* below
    # are compared.
    baseline = [EVALUATE[name](d) for name, d in modes.items()]
    identical = reports_identical(*baseline)
    planted_found = all(planted in r.pair_set() for r in baseline)

    rounds = max(1, min(MAX_ROUNDS, n // k))
    costs = {name: {"pact_eval": 0, "pairs_enqueued": 0, "wall_s": 0.0}
             for name in modes}
    for round_no in range(rounds):
        # Flip one high bit: the churner's reputation oscillates
        # around t_r.
        churn_value = -1 if round_no % 2 == 0 else 1
        # Touch k fresh targets: one critic rating flips each band.
        touched = range(round_no * k, round_no * k + k)
        reports = {}
        for name, detector in modes.items():
            # Snapshot before the observes: flipped pairs are enqueued
            # at observe time, evaluated at end_period.
            before = detector.ops.snapshot()
            detector.observe(ids["churn_rater"], ids["churner"], churn_value)
            for target in touched:
                detector.observe(ids["toucher"], target, -1)
            start = time.perf_counter()
            reports[name] = EVALUATE[name](detector)
            costs[name]["wall_s"] += time.perf_counter() - start
            diff = detector.ops.diff(before)
            costs[name]["pact_eval"] += diff.get("pact_eval", 0)
            costs[name]["pairs_enqueued"] += diff.get("pairs_enqueued", 0)
        if not reports_identical(*reports.values()):
            identical = False
        if any(planted not in r.pair_set() for r in reports.values()):
            planted_found = False

    ops_total = sum(int(d.ops.total()) for d in modes.values())
    return {
        "n_targets": n,
        "touched_per_round": k,
        "touched_fraction": k / n,
        "rounds": rounds,
        "incremental": costs["incremental"],
        "full_screen": costs["full_screen"],
        "pact_eval_ratio": (costs["full_screen"]["pact_eval"]
                            / max(1, costs["incremental"]["pact_eval"])),
        "reports_identical": identical,
        "planted_pair_detected": planted_found,
    }, ops_total


def run(config=None):
    """Harness entrypoint: touched-fraction sweep at fixed n.

    Returns one series entry per k with both detectors' evaluated-pair
    counts, enqueue counts and evaluation wall-clock; the acceptance
    ratio is taken at the smallest (<= 1%) touched fraction.
    """
    cfg = merge_config(DEFAULT_CONFIG, config,
                       allowed=frozenset(DEFAULT_CONFIG))
    n = int(cfg["n_targets"])
    touched = [int(k) for k in cfg["touched"]]

    series = []
    ops_total = 0
    for k in touched:
        entry, ops = run_sweep(n, k)
        series.append(entry)
        ops_total += ops

    small = min(series, key=lambda e: e["touched_fraction"])
    checks = {
        "reports_identical_every_round":
            all(e["reports_identical"] for e in series),
        "planted_pair_detected_throughout":
            all(e["planted_pair_detected"] for e in series),
        "small_touch_point_is_at_most_1pct": small["touched_fraction"] <= 0.01,
        "pact_eval_ratio_at_1pct_at_least_10x":
            small["pact_eval_ratio"] >= 10.0,
        "incremental_cost_tracks_touched_not_n":
            small["incremental"]["pact_eval"]
            <= 2 * small["touched_per_round"] * small["rounds"],
    }
    return {
        "kind": "scaling",
        "title": "pair-incremental screen vs full re-screen",
        "series": series,
        "ops": {"total_operations": ops_total},
        "checks": checks,
        "checks_pass": all(checks.values()),
    }


if __name__ == "__main__":
    raise SystemExit(bench_main(run, SMOKE_CONFIG))
