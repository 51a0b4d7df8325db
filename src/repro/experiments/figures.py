"""One function per paper figure/table — the reproduction's heart.

Every function returns a :class:`FigureResult` whose ``rows`` print the
same series the paper plots and whose ``checks`` encode the qualitative
shape the reproduction must match (see DESIGN.md Section 5).  Absolute
numbers differ from the paper — the substrate is a reimplemented
simulator — but a failing check means the *shape* no longer holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.basic import BasicCollusionDetector
from repro.core.decentralized import DecentralizedCollusionDetector
from repro.core.formula import reputation_surface
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.experiments.config import (
    DEFAULTS,
    default_detector,
    default_eigentrust,
    repeats_from_env,
)
from repro.experiments.result import FigureResult
from repro.experiments.runner import average_runs, run_seeds
from repro.p2p.metrics import SimulationMetrics
from repro.p2p.simulator import Simulation, SimulationConfig, SimulationResult
from repro.ratings.matrix import RatingMatrix
from repro.reputation.decentralized import DecentralizedReputationSystem
from repro.traces.amazon import AmazonTraceGenerator
from repro.traces.analysis import (
    classify_rater_patterns,
    per_rater_daily_stats,
    seller_summaries,
    suspicious_pairs,
)
from repro.traces.graph import interaction_graph, pair_structure_stats
from repro.traces.overstock import OverstockTraceGenerator
from repro.util.rng import as_generator
from repro.util.stats import fit_power_law

__all__ = [
    "figure1a_rating_vs_reputation",
    "figure1b_rater_patterns",
    "figure1c_rating_frequency",
    "figure1d_interaction_graph",
    "figure4_reputation_surface",
    "figure5_eigentrust_b06",
    "figure6_eigentrust_b02",
    "figure7_compromised_pretrusted",
    "figure8_detectors_standalone",
    "figure9_et_optimized_b06",
    "figure10_et_optimized_b02",
    "figure11_et_optimized_compromised",
    "figure12_requests_to_colluders",
    "figure13_operation_cost",
    "prop41_basic_scaling",
    "prop42_optimized_scaling",
    "sec3_suspicious_stats",
    "sec4_decentralized_detection",
]

COMPROMISED_PAIRS: Tuple[Tuple[int, int], ...] = ((1, 4), (2, 6))


# ----------------------------------------------------------------------
# simulation plumbing
# ----------------------------------------------------------------------
def _simulate(
    b: float,
    seed: int,
    detector_kind: Optional[str] = None,
    compromised: bool = False,
    n_colluders: Optional[int] = None,
    pretrusted: Tuple[int, ...] = (1, 2, 3),
    colluder_ids: Optional[Tuple[int, ...]] = None,
) -> SimulationResult:
    """Run one paper-configured simulation."""
    cfg = SimulationConfig(
        good_behavior_colluder=b,
        seed=seed,
        pretrusted_ids=pretrusted,
        compromised_pairs=COMPROMISED_PAIRS if compromised else (),
        **({"colluder_ids": colluder_ids} if colluder_ids is not None else {}),
    )
    if n_colluders is not None:
        cfg = cfg.with_colluders(n_colluders)
    detector = default_detector(detector_kind) if detector_kind else None
    sim = Simulation(cfg, reputation_system=default_eigentrust(cfg), detector=detector)
    return sim.run()


def _reputation_figure(
    figure_id: str,
    title: str,
    b: float,
    detector_kind: Optional[str],
    compromised: bool,
    repeats: Optional[int],
    expected_zeroed: Sequence[int],
    ordering_check: str,
    colluder_ids: Optional[Tuple[int, ...]] = None,
    pretrusted: Tuple[int, ...] = (1, 2, 3),
) -> FigureResult:
    """Shared machinery for Figures 5-11 (reputation distributions)."""
    reps = repeats_from_env(repeats)
    results = run_seeds(
        lambda s: _simulate(b, s, detector_kind, compromised,
                            colluder_ids=colluder_ids, pretrusted=pretrusted),
        reps,
    )
    mean_rep = average_runs([r.final_reputations for r in results])
    metrics = [SimulationMetrics(r) for r in results]
    kind_means: Dict[str, float] = {}
    for key in ("normal", "pretrusted", "colluder"):
        kind_means[key] = float(
            np.mean([m.mean_reputation_by_kind()[key] for m in metrics])
        )

    result = FigureResult(
        figure_id=figure_id,
        title=title,
        headers=["node_id", "mean_reputation", "kind"],
    )
    cfg = results[0].config
    special = {i: "pretrusted" for i in cfg.pretrusted_ids}
    for i in metrics[0].actual_colluders:
        special[i] = "colluder"
    for node in range(1, min(21, cfg.n_nodes)):
        result.rows.append(
            [node, float(mean_rep[node]), special.get(node, "normal")]
        )
    result.series["mean_by_kind"] = kind_means
    result.series["colluder_request_share"] = {
        "mean": float(np.mean([r.colluder_request_share for r in results]))
    }

    if detector_kind:
        detected_all = [set(r.detected_colluders) for r in results]
        expected = set(int(v) for v in expected_zeroed)
        if expected:
            result.checks["all_target_colluders_zeroed"] = (
                max(float(mean_rep[i]) for i in expected) < 1e-12
            )
            result.checks["detection_recall"] = all(
                expected <= d for d in detected_all
            )
    if ordering_check == "colluders_top":
        result.checks["colluders_above_pretrusted"] = (
            kind_means["colluder"] > kind_means["pretrusted"]
        )
        result.checks["pretrusted_above_normal"] = (
            kind_means["pretrusted"] > kind_means["normal"]
        )
    elif ordering_check == "colluders_suppressed":
        result.checks["colluders_below_pretrusted"] = (
            kind_means["colluder"] < kind_means["pretrusted"]
        )
    elif ordering_check == "colluders_zero":
        result.checks["colluders_at_zero"] = kind_means["colluder"] < 1e-9
        result.checks["pretrusted_positive"] = kind_means["pretrusted"] > 0
    return result


# ----------------------------------------------------------------------
# Section III — trace analysis figures
# ----------------------------------------------------------------------
def figure1a_rating_vs_reputation(seed: int = 0) -> FigureResult:
    """Figure 1(a): rating volumes across the seller reputation spectrum."""
    trace = AmazonTraceGenerator().generate(rng=seed)
    summaries = seller_summaries(trace.sellers, trace.scores)
    result = FigureResult(
        figure_id="fig1a",
        title="Ratings vs. seller reputation (synthetic Amazon year)",
        headers=["reputation", "total", "positive", "negative"],
    )
    for s in summaries:
        result.rows.append([round(s.reputation, 3), s.total, s.positive, s.negative])
    # Shape: volume increases with reputation (compare top/bottom terciles).
    k = max(1, len(summaries) // 3)
    top = float(np.mean([s.total for s in summaries[:k]]))
    bottom = float(np.mean([s.total for s in summaries[-k:]]))
    result.series["tercile_volume"] = {"high_reputed": top, "low_reputed": bottom}
    result.checks["high_reputed_attract_more"] = top > bottom
    result.notes.append(
        "synthetic substitute for the 2.1M-rating Amazon crawl (see DESIGN.md)"
    )
    return result


def figure1b_rater_patterns(seed: int = 0) -> FigureResult:
    """Figure 1(b): repeat-rater behaviour patterns on a suspicious seller."""
    trace = AmazonTraceGenerator().generate(rng=seed)
    stats = suspicious_pairs(trace.buyers, trace.sellers, trace.scores, threshold=20)
    result = FigureResult(
        figure_id="fig1b",
        title="Rating patterns of repeat raters on one suspicious seller",
        headers=["rater", "pattern", "n_ratings", "mean_score"],
    )
    if not stats.suspicious_targets:
        result.checks["suspicious_seller_found"] = False
        return result
    seller = stats.suspicious_targets[0]
    patterns = classify_rater_patterns(
        trace.buyers, trace.sellers, trace.scores, target=seller, min_ratings=15
    )
    sel = trace.sellers == seller
    for rater, pattern in sorted(patterns.items()):
        mask = sel & (trace.buyers == rater)
        result.rows.append(
            [rater, pattern.value, int(mask.sum()), float(trace.scores[mask].mean())]
        )
    kinds = {p.value for p in patterns.values()}
    result.checks["suspicious_seller_found"] = True
    result.checks["praise_pattern_present"] = "persistent-praise" in kinds
    result.series["pattern_counts"] = {
        k: sum(1 for p in patterns.values() if p.value == k) for k in sorted(kinds)
    }
    return result


def figure1c_rating_frequency(seed: int = 0) -> FigureResult:
    """Figure 1(c): per-rater daily rating stats, suspicious vs unsuspicious."""
    trace = AmazonTraceGenerator().generate(rng=seed)
    stats = suspicious_pairs(trace.buyers, trace.sellers, trace.scores, threshold=20)
    suspicious = list(stats.suspicious_targets)[:5]
    unsuspicious = [
        s.seller
        for s in seller_summaries(trace.sellers, trace.scores)
        if s.seller not in stats.suspicious_targets
    ][:4]
    result = FigureResult(
        figure_id="fig1c",
        title="Per-rater rating intensity: suspicious vs unsuspicious sellers",
        headers=["seller", "class", "mean_per_day", "max_count", "min_count",
                 "count_variance"],
    )
    max_susp: List[int] = []
    max_unsusp: List[int] = []
    for seller in suspicious:
        st = per_rater_daily_stats(trace.buyers, trace.sellers, trace.days,
                                   seller, trace.config.duration_days)
        result.rows.append([seller, "suspicious", st.mean_per_day, st.max_count,
                            st.min_count, st.count_variance])
        max_susp.append(st.max_count)
    for seller in unsuspicious:
        st = per_rater_daily_stats(trace.buyers, trace.sellers, trace.days,
                                   seller, trace.config.duration_days)
        result.rows.append([seller, "unsuspicious", st.mean_per_day, st.max_count,
                            st.min_count, st.count_variance])
        max_unsusp.append(st.max_count)
    result.checks["suspicious_max_far_higher"] = (
        bool(max_susp) and bool(max_unsusp)
        and min(max_susp) > max(max_unsusp)
    )
    result.series["max_counts"] = {
        "suspicious_min": float(min(max_susp)) if max_susp else float("nan"),
        "unsuspicious_max": float(max(max_unsusp)) if max_unsusp else float("nan"),
    }
    return result


def figure1d_interaction_graph(seed: int = 0) -> FigureResult:
    """Figure 1(d): Overstock interaction graph is pairwise (C5)."""
    trace = OverstockTraceGenerator().generate(rng=seed)
    graph = interaction_graph(trace.raters, trace.targets, min_pair_ratings=20)
    stats = pair_structure_stats(graph)
    result = FigureResult(
        figure_id="fig1d",
        title="Thresholded interaction graph structure (synthetic Overstock)",
        headers=["metric", "value"],
        rows=[
            ["nodes_with_edges", stats.n_nodes],
            ["edges", stats.n_edges],
            ["triangles", stats.n_triangles],
            ["closed_structures", stats.n_closed_structures],
            ["max_degree", stats.max_degree],
            ["largest_component", stats.component_sizes[0] if stats.component_sizes else 0],
        ],
    )
    result.checks["pairwise_only"] = stats.all_pairwise
    result.checks["colluders_recovered"] = (
        stats.suspected_colluders == trace.colluders
    )
    result.notes.append(
        "synthetic substitute for the 450K-transaction Overstock crawl"
    )
    return result


# ----------------------------------------------------------------------
# Figure 4 — the Formula (1) surface
# ----------------------------------------------------------------------
def figure4_reputation_surface(t_a: float = 0.9, t_b: float = 0.3) -> FigureResult:
    """Figure 4: reputation range of suspected colluders over (F, N)."""
    pair, total, lower, upper = reputation_surface(t_a, t_b, n_total_max=200,
                                                   pair_count_max=100, steps=21)
    result = FigureResult(
        figure_id="fig4",
        title=f"Colluder reputation surface (T_a={t_a}, T_b={t_b})",
        headers=["pair_count", "n_total", "lower_bound", "upper_bound"],
    )
    for r in range(0, pair.shape[0], 5):
        for c in range(0, pair.shape[1], 5):
            if np.isnan(lower[r, c]):
                continue
            result.rows.append(
                [float(pair[r, c]), float(total[r, c]),
                 float(lower[r, c]), float(upper[r, c])]
            )
    valid = ~np.isnan(lower)
    result.checks["upper_geq_lower"] = bool(np.all(upper[valid] >= lower[valid]))
    # Lower bound grows with the pair count at fixed N (more booster
    # ratings force a higher reputation).
    col = valid[-1]
    result.checks["lower_monotone_in_pair_count"] = bool(
        np.all(np.diff(lower[-1][col]) >= 0)
    )
    return result


# ----------------------------------------------------------------------
# Figures 5-11 — reputation distributions
# ----------------------------------------------------------------------
def figure5_eigentrust_b06(repeats: Optional[int] = None) -> FigureResult:
    """Figure 5: EigenTrust alone, colluders behave well 60% of the time."""
    return _reputation_figure(
        "fig5", "EigenTrust reputation distribution, B=0.6",
        b=0.6, detector_kind=None, compromised=False, repeats=repeats,
        expected_zeroed=(), ordering_check="colluders_top",
    )


def figure6_eigentrust_b02(repeats: Optional[int] = None) -> FigureResult:
    """Figure 6: EigenTrust alone, B=0.2 — collusion partially suppressed."""
    return _reputation_figure(
        "fig6", "EigenTrust reputation distribution, B=0.2",
        b=0.2, detector_kind=None, compromised=False, repeats=repeats,
        expected_zeroed=(), ordering_check="colluders_suppressed",
    )


def figure7_compromised_pretrusted(repeats: Optional[int] = None) -> FigureResult:
    """Figure 7: EigenTrust with compromised pretrusted nodes, B=0.2."""
    result = _reputation_figure(
        "fig7", "EigenTrust with compromised pretrusted nodes, B=0.2",
        b=0.2, detector_kind=None, compromised=True, repeats=repeats,
        expected_zeroed=(), ordering_check="none",
    )
    # Shape: the compromised-boosted colluders (4-7) gain much more
    # reputation than the unboosted ones (8-11).
    rep = {row[0]: row[1] for row in result.rows}
    boosted = np.mean([rep[i] for i in (4, 5, 6, 7)])
    unboosted = np.mean([rep[i] for i in (8, 9, 10, 11)])
    result.series["colluder_groups"] = {
        "boosted_4_7": float(boosted), "unboosted_8_11": float(unboosted)
    }
    result.checks["boosted_exceed_unboosted"] = boosted > unboosted
    result.checks["boosted_exceed_honest_pretrusted"] = boosted > rep[3]
    return result


def figure8_detectors_standalone(repeats: Optional[int] = None) -> FigureResult:
    """Figure 8: the detectors alone (no pretrusted nodes), B=0.2.

    Colluders are ids 1-8 ("our proposed methods do not use pretrusted
    nodes"); both Unoptimized and Optimized produce identical
    reputation outcomes, so one distribution is reported with an
    explicit equivalence check between the two methods.
    """
    reps = repeats_from_env(repeats)
    colluders = tuple(range(1, 9))

    def run(kind: str, seed: int) -> SimulationResult:
        return _simulate(0.2, seed, detector_kind=kind, pretrusted=(),
                         colluder_ids=colluders)

    basic_runs = run_seeds(lambda s: run("basic", s), reps)
    opt_runs = run_seeds(lambda s: run("optimized", s), reps)
    mean_rep = average_runs([r.final_reputations for r in opt_runs])

    result = FigureResult(
        figure_id="fig8",
        title="Detectors standalone (colluder ids 1-8), B=0.2",
        headers=["node_id", "mean_reputation", "kind"],
    )
    for node in range(1, 21):
        kind = "colluder" if node in colluders else "normal"
        result.rows.append([node, float(mean_rep[node]), kind])
    result.checks["all_colluders_detected_basic"] = all(
        set(colluders) <= set(r.detected_colluders) for r in basic_runs
    )
    result.checks["all_colluders_detected_optimized"] = all(
        set(colluders) <= set(r.detected_colluders) for r in opt_runs
    )
    result.checks["methods_agree"] = all(
        rb.detected_colluders == ro.detected_colluders
        for rb, ro in zip(basic_runs, opt_runs)
    )
    result.checks["colluder_reputation_zero"] = (
        max(float(mean_rep[i]) for i in colluders) < 1e-12
    )
    return result


def figure9_et_optimized_b06(repeats: Optional[int] = None) -> FigureResult:
    """Figure 9: EigenTrust + Optimized detector, B=0.6."""
    return _reputation_figure(
        "fig9", "EigenTrust+Optimized reputation distribution, B=0.6",
        b=0.6, detector_kind="optimized", compromised=False, repeats=repeats,
        expected_zeroed=range(4, 12), ordering_check="colluders_zero",
    )


def figure10_et_optimized_b02(repeats: Optional[int] = None) -> FigureResult:
    """Figure 10: EigenTrust + Optimized detector, B=0.2."""
    return _reputation_figure(
        "fig10", "EigenTrust+Optimized reputation distribution, B=0.2",
        b=0.2, detector_kind="optimized", compromised=False, repeats=repeats,
        expected_zeroed=range(4, 12), ordering_check="colluders_zero",
    )


def figure11_et_optimized_compromised(repeats: Optional[int] = None) -> FigureResult:
    """Figure 11: EigenTrust + Optimized with compromised pretrusted nodes."""
    result = _reputation_figure(
        "fig11", "EigenTrust+Optimized with compromised pretrusted, B=0.2",
        b=0.2, detector_kind="optimized", compromised=True, repeats=repeats,
        expected_zeroed=list(range(4, 12)) + [1, 2], ordering_check="none",
    )
    rep = {row[0]: row[1] for row in result.rows}
    result.checks["compromised_pretrusted_zeroed"] = (
        max(rep[1], rep[2]) < 1e-12
    )
    result.checks["honest_pretrusted_stays_high"] = rep[3] > 0.01
    result.checks["colluders_zeroed"] = (
        max(rep[i] for i in range(4, 12)) < 1e-12
    )
    return result


# ----------------------------------------------------------------------
# Figures 12-13 — sweeps over the number of colluders
# ----------------------------------------------------------------------
def figure12_requests_to_colluders(
    repeats: Optional[int] = None,
    sweep: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figure 12: fraction of requests captured by colluders vs their count."""
    reps = repeats_from_env(repeats)
    counts = tuple(sweep) if sweep is not None else DEFAULTS.colluder_sweep
    systems = ("eigentrust", "unoptimized", "optimized")
    series: Dict[str, Dict[int, float]] = {s: {} for s in systems}

    for count in counts:
        for system in systems:
            kind = {"eigentrust": None, "unoptimized": "basic",
                    "optimized": "optimized"}[system]
            runs = run_seeds(
                lambda s, k=kind, c=count: _simulate(0.2, s, detector_kind=k,
                                                     n_colluders=c),
                reps,
            )
            series[system][count] = float(
                np.mean([r.colluder_request_share for r in runs])
            )

    result = FigureResult(
        figure_id="fig12",
        title="Percent of requests sent to colluders vs number of colluders (B=0.2)",
        headers=["n_colluders"] + list(systems),
        series=series,
    )
    for count in counts:
        result.rows.append([count] + [series[s][count] for s in systems])
    et = [series["eigentrust"][c] for c in counts]
    opt = [series["optimized"][c] for c in counts]
    unopt = [series["unoptimized"][c] for c in counts]
    result.checks["eigentrust_grows"] = et[-1] > et[0]
    result.checks["detectors_stay_low"] = max(max(opt), max(unopt)) < max(et)
    result.checks["detectors_beat_eigentrust_at_scale"] = (
        opt[-1] < et[-1] and unopt[-1] < et[-1]
    )
    result.checks["methods_comparable"] = all(
        abs(o - u) < 0.1 for o, u in zip(opt, unopt)
    )
    return result


def figure13_operation_cost(
    repeats: Optional[int] = None,
    sweep: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figure 13: unit-operation cost of thwarting collusion vs colluders."""
    reps = repeats_from_env(repeats)
    counts = tuple(sweep) if sweep is not None else DEFAULTS.colluder_sweep
    series: Dict[str, Dict[int, float]] = {
        "eigentrust": {}, "unoptimized": {}, "optimized": {}
    }

    for count in counts:
        et_runs = run_seeds(
            lambda s, c=count: _simulate(0.2, s, n_colluders=c), reps
        )
        series["eigentrust"][count] = float(
            np.mean([sum(r.reputation_ops.values()) for r in et_runs])
        )
        for system, kind in (("unoptimized", "basic"), ("optimized", "optimized")):
            runs = run_seeds(
                lambda s, k=kind, c=count: _simulate(0.2, s, detector_kind=k,
                                                     n_colluders=c),
                reps,
            )
            series[system][count] = float(
                np.mean([sum(r.detector_ops.values()) for r in runs])
            )

    result = FigureResult(
        figure_id="fig13",
        title="Operation cost for thwarting collusion vs number of colluders",
        headers=["n_colluders", "eigentrust", "unoptimized", "optimized"],
        series=series,
        notes=[
            "cost = deterministic unit-operation counts (see DESIGN.md), "
            "not wall-clock cycles",
        ],
    )
    for count in counts:
        result.rows.append(
            [count, series["eigentrust"][count], series["unoptimized"][count],
             series["optimized"][count]]
        )
    et = [series["eigentrust"][c] for c in counts]
    unopt = [series["unoptimized"][c] for c in counts]
    opt = [series["optimized"][c] for c in counts]
    # The paper's "Unoptimized >> EigenTrust" gap widens with the number
    # of colluders (more high-reputed nodes to deep-scan); at the small
    # end the two are comparable in this reproduction because our
    # EigenTrust's iteration count is tolerance-bound (EXPERIMENTS.md).
    half = len(counts) // 2
    result.checks["unoptimized_most_expensive_at_scale"] = all(
        u > e for u, e in zip(unopt[half:], et[half:])
    )
    result.checks["optimized_cheapest"] = all(o < e for o, e in zip(opt, et))
    # "the operation cost of EigenTrust is constant as the number of
    # colluders increases" — its iteration count wobbles a little with
    # the workload, so flatness is judged relative to Unoptimized's
    # systematic growth.
    result.checks["eigentrust_flat_in_colluders"] = (
        max(et) < 2.0 * min(et)
        and (et[-1] / et[0]) < (unopt[-1] / unopt[0])
    )
    result.checks["unoptimized_grows"] = unopt[-1] > unopt[0]
    return result


# ----------------------------------------------------------------------
# Propositions 4.1 / 4.2 — complexity scaling
# ----------------------------------------------------------------------
def _planted_matrix(
    n: int,
    n_pairs: int,
    rng,
    background_per_node: int = 30,
    pair_ratings: int = 60,
) -> RatingMatrix:
    """A synthetic period matrix with planted colluding pairs.

    Background nodes exchange mostly-positive ratings at low pair
    frequency; ``n_pairs`` disjoint pairs exchange ``pair_ratings``
    mutual positives while receiving negatives from the background.
    """
    gen = as_generator(rng)
    total = background_per_node * n
    raters = gen.integers(0, n, size=total)
    targets = gen.integers(0, n, size=total)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(gen.random(raters.size) < 0.8, 1, -1)
    # Collect (rater, target, value, count) runs for one add_events
    # call; the critic draws keep their order, so the matrix is seed-stable.
    runs = []
    for k in range(n_pairs):
        a, b = 2 * k, 2 * k + 1
        runs += [(a, b, 1, pair_ratings), (b, a, 1, pair_ratings)]
        # outsiders sour on the colluders
        critics = gen.choice(n, size=10, replace=False)
        runs += [(int(c), victim, -1, 3) for c in critics
                 if int(c) not in (a, b) for victim in (a, b)]
    counts = [run[3] for run in runs]
    matrix = RatingMatrix(n)
    matrix.add_events(
        np.concatenate([raters, np.repeat([r[0] for r in runs], counts)]),
        np.concatenate([targets, np.repeat([r[1] for r in runs], counts)]),
        np.concatenate([values, np.repeat([r[2] for r in runs], counts)]),
    )
    return matrix


def _scaling_result(
    figure_id: str,
    title: str,
    detector_factory,
    sizes: Sequence[int],
    expected_exponent: float,
    tolerance: float,
    seed: int = 0,
) -> FigureResult:
    # Propositions 4.1/4.2 fix m (the number of high-reputed nodes)
    # while n grows: the gate is set so only the planted pairs qualify
    # (their mutual boosting puts them far above the background's raw
    # reputation), isolating the n-scaling of one node's check.
    thresholds = DetectionThresholds(t_r=50.0, t_a=0.9, t_b=0.7, t_n=40)
    costs: List[float] = []
    result = FigureResult(
        figure_id=figure_id, title=title,
        headers=["n_nodes", "operations"],
    )
    for n in sizes:
        matrix = _planted_matrix(n, n_pairs=4, rng=seed)
        detector = detector_factory(thresholds)
        report = detector.detect(matrix)
        costs.append(float(report.total_operations()))
        result.rows.append([n, report.total_operations()])
    k, _c = fit_power_law(list(sizes), costs)
    result.series["fit"] = {"exponent": k, "expected": expected_exponent}
    result.checks["exponent_in_band"] = (
        abs(k - expected_exponent) <= tolerance
    )
    return result


def prop41_basic_scaling(
    sizes: Sequence[int] = (100, 200, 400, 800), seed: int = 0
) -> FigureResult:
    """Proposition 4.1: the basic detector's cost grows ~quadratically."""
    return _scaling_result(
        "prop4.1", "Basic detector operation scaling (expect ~n^2)",
        lambda th: BasicCollusionDetector(th), sizes,
        expected_exponent=2.0, tolerance=0.35, seed=seed,
    )


def prop42_optimized_scaling(
    sizes: Sequence[int] = (100, 200, 400, 800), seed: int = 0
) -> FigureResult:
    """Proposition 4.2: the optimized detector's cost grows ~linearly."""
    return _scaling_result(
        "prop4.2", "Optimized detector operation scaling (expect ~n^1)",
        lambda th: OptimizedCollusionDetector(th), sizes,
        expected_exponent=1.0, tolerance=0.35, seed=seed,
    )


# ----------------------------------------------------------------------
# Section III statistics & Section IV decentralized protocol
# ----------------------------------------------------------------------
def sec3_suspicious_stats(seed: int = 0) -> FigureResult:
    """Section III: the >= 20 ratings/year suspicious-pair statistics."""
    trace = AmazonTraceGenerator().generate(rng=seed)
    stats = suspicious_pairs(trace.buyers, trace.sellers, trace.scores, threshold=20)
    result = FigureResult(
        figure_id="sec3",
        title="Suspicious-pair filter statistics (threshold = 20/year)",
        headers=["metric", "value"],
        rows=[
            ["suspicious_pairs", stats.n_pairs],
            ["suspicious_sellers", len(stats.suspicious_targets)],
            ["suspicious_raters", len(stats.suspicious_raters)],
            ["mean_praise_fraction(a)", stats.mean_praise_fraction],
            ["praise_pairs", stats.n_praise_pairs],
            ["bombing_pairs", stats.n_bombing_pairs],
            ["mean_pair_count", stats.mean_pair_count],
            ["max_pair_count", stats.max_pair_count],
        ],
    )
    planted = trace.suspicious_sellers
    found = set(stats.suspicious_targets)
    recall = len(found & planted) / len(planted) if planted else 1.0
    result.series["planted_recovery"] = {"recall": recall}
    result.checks["all_planted_sellers_found"] = recall == 1.0
    result.checks["praise_fraction_near_one"] = (
        stats.mean_praise_fraction > 0.95
    )
    result.checks["max_frequency_far_above_mean"] = (
        stats.max_pair_count > 10 * stats.mean_pair_count
    )
    return result


def sec4_decentralized_detection(
    n: int = 120, managers: int = 8, seed: int = 0
) -> FigureResult:
    """Section IV: the decentralized protocol equals centralized detection."""
    matrix = _planted_matrix(n, n_pairs=5, rng=seed)
    thresholds = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)

    system = DecentralizedReputationSystem(
        n, manager_addresses=[f"manager-{k}" for k in range(managers)]
    )
    # Replay the planted matrix into the sharded system from its COO
    # entry set (effective entries: negatives = count - positives).
    t_idx, r_idx, cnt, pos_arr = matrix.entries(effective=True)
    for target, rater, eff, pos in zip(t_idx, r_idx, cnt, pos_arr):
        for _ in range(int(pos)):
            system.submit_rating(int(rater), int(target), 1)
        for _ in range(int(eff) - int(pos)):
            system.submit_rating(int(rater), int(target), -1)
    system.update()

    results: Dict[str, object] = {}
    messages: Dict[str, int] = {}
    for method in ("basic", "optimized"):
        detector = DecentralizedCollusionDetector(system, thresholds, method=method)
        report = detector.detect()
        results[method] = report.pair_set()
        messages[method] = report.messages

    central = OptimizedCollusionDetector(thresholds).detect(system.global_matrix())

    result = FigureResult(
        figure_id="sec4",
        title="Decentralized detection protocol (Chord-sharded managers)",
        headers=["metric", "value"],
        rows=[
            ["managers", managers],
            ["nodes", n],
            ["pairs_detected_basic", len(results["basic"])],
            ["pairs_detected_optimized", len(results["optimized"])],
            ["pairs_detected_centralized", len(central.pair_set())],
            ["protocol_messages_basic", messages["basic"]],
            ["protocol_messages_optimized", messages["optimized"]],
            ["total_dht_hops", system.messages.hops],
        ],
    )
    result.checks["matches_centralized"] = (
        results["optimized"] == central.pair_set()
    )
    result.checks["methods_agree"] = results["basic"] == results["optimized"]
    result.checks["planted_pairs_found"] = all(
        (2 * k, 2 * k + 1) in results["optimized"] for k in range(5)
    )
    return result
