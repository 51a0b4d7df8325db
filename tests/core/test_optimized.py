"""Tests for the optimized (Formula 2) collusion detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formula import formula2_screen
from repro.core.model import DetectionReport, PairEvidence, SuspectedPair
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.matrix import RatingMatrix
from repro.util.counters import OpCounter

from tests.conftest import build_planted_matrix


class TestDetection:
    def test_finds_planted_pairs(self, planted_matrix, sim_thresholds):
        report = OptimizedCollusionDetector(sim_thresholds).detect(planted_matrix)
        assert report.pair_set() == {(4, 5), (6, 7)}

    def test_no_collusion_no_pairs(self, sim_thresholds):
        matrix = build_planted_matrix(pairs=())
        report = OptimizedCollusionDetector(sim_thresholds).detect(matrix)
        assert len(report) == 0

    def test_method_name(self, planted_matrix, sim_thresholds):
        report = OptimizedCollusionDetector(sim_thresholds).detect(planted_matrix)
        assert report.method == "optimized"

    def test_evidence_attached(self, planted_matrix, sim_thresholds):
        report = OptimizedCollusionDetector(sim_thresholds).detect(planted_matrix)
        pair = report.pairs[0]
        assert pair.evidence_low_to_high is not None
        assert pair.evidence_high_to_low is not None
        assert pair.evidence_low_to_high.frequency >= sim_thresholds.t_n

    def test_one_sided_praise_not_flagged(self, sim_thresholds):
        matrix = build_planted_matrix(pairs=())
        matrix.add(10, 11, 1, count=80)
        for c in range(5):
            if c not in (10, 11):
                matrix.add(c, 11, -1, count=5)
        report = OptimizedCollusionDetector(sim_thresholds).detect(matrix)
        assert not report.contains(10, 11)

    def test_honest_mutual_praise_not_flagged(self, sim_thresholds):
        matrix = build_planted_matrix(pairs=())
        matrix.add(10, 11, 1, count=80)
        matrix.add(11, 10, 1, count=80)
        for c in range(8):
            if c not in (10, 11):
                matrix.add(c, 10, 1, count=5)
                matrix.add(c, 11, 1, count=5)
        report = OptimizedCollusionDetector(sim_thresholds).detect(matrix)
        assert not report.contains(10, 11)

    def test_external_reputation_gate(self, planted_matrix, sim_thresholds):
        rep = np.zeros(planted_matrix.n)
        rep[[6, 7]] = 10.0
        report = OptimizedCollusionDetector(sim_thresholds).detect(
            planted_matrix, reputation=rep
        )
        assert report.pair_set() == {(6, 7)}

    def test_include_forces_examination(self, planted_matrix, sim_thresholds):
        rep = np.zeros(planted_matrix.n)
        report = OptimizedCollusionDetector(sim_thresholds).detect(
            planted_matrix, reputation=rep, include=np.array([4, 5])
        )
        assert report.pair_set() == {(4, 5)}

    def test_bad_reputation_shape_rejected(self, planted_matrix, sim_thresholds):
        with pytest.raises(DetectionError):
            OptimizedCollusionDetector(sim_thresholds).detect(
                planted_matrix, reputation=np.zeros(2)
            )

    def test_bad_include_rejected(self, planted_matrix, sim_thresholds):
        with pytest.raises(DetectionError):
            OptimizedCollusionDetector(sim_thresholds).detect(
                planted_matrix, include=np.array([-1])
            )


class TestCost:
    def test_far_cheaper_than_basic(self, planted_matrix, sim_thresholds):
        from repro.core.basic import BasicCollusionDetector

        basic_ops = BasicCollusionDetector(sim_thresholds).detect(
            planted_matrix
        ).total_operations()
        opt_ops = OptimizedCollusionDetector(sim_thresholds).detect(
            planted_matrix
        ).total_operations()
        assert opt_ops < basic_ops / 10

    def test_cost_linear_in_n(self, sim_thresholds):
        """Proposition 4.2 at fixed m: ops scale ~n."""
        ops = []
        for n in (40, 80, 160):
            matrix = build_planted_matrix(n=n, background=0)
            report = OptimizedCollusionDetector(sim_thresholds).detect(matrix)
            ops.append(report.total_operations())
        assert 1.5 < ops[1] / ops[0] < 2.5
        assert 1.5 < ops[2] / ops[1] < 2.5

    def test_no_row_scans_charged(self, planted_matrix, sim_thresholds):
        """The optimized method never rescans a row (its whole point)."""
        report = OptimizedCollusionDetector(sim_thresholds).detect(planted_matrix)
        assert "row_scan" not in report.operations
        assert report.operations.get("freq_check", 0) > 0
        assert report.operations.get("formula_eval", 0) > 0


class TestMultiBoosterExclusion:
    def test_double_boosted_colluder_caught(self, sim_thresholds):
        matrix = build_planted_matrix(pairs=((4, 5),))
        matrix.add(6, 4, 1, count=60)
        matrix.add(4, 6, 1, count=60)
        for c in range(8, 20):
            matrix.add(c, 6, 1, count=6)
        report = OptimizedCollusionDetector(sim_thresholds).detect(matrix)
        assert report.contains(4, 5)

    def test_single_exclusion_mode(self, planted_matrix, sim_thresholds):
        detector = OptimizedCollusionDetector(
            sim_thresholds, multi_booster_exclusion=False
        )
        report = detector.detect(planted_matrix)
        assert report.pair_set() == {(4, 5), (6, 7)}


# ----------------------------------------------------------------------
# The candidate join against the sequential per-node loop
# ----------------------------------------------------------------------
N = 14
JOIN_THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=15)


def reference_detect(matrix, thresholds, multi, reputation=None,
                     include=None):
    """Proposition 4.2's loop, one high node at a time, over ``entries()``.

    Walks every high id in order, screens its booster set, and resolves
    each unordered pair once with the symmetric re-check, charging the
    nominal ``freq_check`` / ``formula_eval`` costs as it goes.
    """
    th, n, ops = thresholds, matrix.n, OpCounter()
    node_pos = matrix.received_positive()
    node_eff = node_pos + matrix.received_negative()
    r_sum = (2 * node_pos - node_eff).astype(float)
    gate = r_sum if reputation is None else np.asarray(reputation, float)
    high = gate >= th.t_r
    if include is not None:
        high[np.asarray(include, dtype=np.int64)] = True
    high_ids = np.flatnonzero(high).tolist()
    report = DetectionReport(method="optimized",
                             examined_nodes=len(high_ids))
    if high_ids:
        ops.add("freq_check", len(high_ids) * (n - 1))
    boosters = {}
    for t, r, f, p in zip(*(a.tolist() for a in matrix.entries())):
        if high[t] and high[r] and f >= th.t_n and p / f >= th.t_a:
            boosters.setdefault(t, {})[r] = (f, p)

    def in_band(target, raters):
        mass = sum(boosters[target][r][0] for r in raters)
        return formula2_screen(r_sum[target], float(node_eff[target]),
                               float(mass), th.t_a, th.t_b)

    def evidence(rater, target):
        f, p = boosters[target][rater]
        total, positive = int(node_eff[target]) - f, int(node_pos[target]) - p
        return PairEvidence(
            rater=rater, target=target, frequency=f, positive=p,
            others_total=total, others_positive=positive, a=p / f,
            b=positive / total if total > 0 else float("nan"),
            target_reputation=float(gate[target]))

    resolved = set()
    for i in high_ids:
        if i not in boosters:
            continue
        if multi:
            ops.add("formula_eval")
            if not in_band(i, boosters[i]):
                continue
        for j in sorted(boosters[i]):
            if not multi:
                ops.add("formula_eval")
                if not in_band(i, [j]):
                    continue
            if (min(i, j), max(i, j)) in resolved:
                continue
            resolved.add((min(i, j), max(i, j)))
            ops.add("freq_check", n - 1)
            if i not in boosters.get(j, {}):
                continue
            ops.add("formula_eval")
            if in_band(j, boosters[j] if multi else [i]):
                report.add(SuspectedPair.of(i, j, evidence(i, j),
                                            evidence(j, i)))
    report.operations = ops.diff({})
    return report


@st.composite
def join_cases(draw):
    """A background of single ratings plus mutual and one-sided praise
    runs (some bombed by critics), an optional external reputation and
    ``include`` ids."""
    matrix = RatingMatrix(N)
    events = draw(st.lists(st.tuples(st.integers(0, N - 1),
                                     st.integers(1, N - 1),
                                     st.sampled_from([-1, 0, 1, 1])),
                           max_size=80))
    if events:
        raters, shifts, values = (np.array(c) for c in zip(*events))
        matrix.add_events(raters, (raters + shifts) % N, values)
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, N - 1))
        b = (a + draw(st.integers(1, N - 1))) % N
        legs = [(a, b), (b, a)] if draw(st.booleans()) else [(a, b)]
        for rater, target in legs:
            matrix.add(rater, target, 1, count=draw(st.integers(10, 60)))
            matrix.add(rater, target, -1, count=draw(st.integers(0, 4)))
            for critic in draw(st.lists(st.integers(0, N - 1), max_size=4)):
                if critic != target:
                    matrix.add(critic, target, -1,
                               count=draw(st.integers(1, 6)))
    reputation = include = None
    if draw(st.booleans()):
        reputation = np.array(draw(st.lists(
            st.floats(-5, 10, allow_nan=False), min_size=N, max_size=N)))
        include = draw(st.lists(st.integers(0, N - 1), max_size=3))
    return matrix, reputation, include


class TestCandidateJoin:
    """The booster-entry join reports, charges and examines exactly what
    the per-high-node loop does."""

    @given(join_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_join_matches_per_node_loop(self, case, multi):
        matrix, reputation, include = case
        got = OptimizedCollusionDetector(
            JOIN_THRESHOLDS, multi_booster_exclusion=multi
        ).detect(matrix, reputation=reputation, include=include)
        want = reference_detect(matrix, JOIN_THRESHOLDS, multi,
                                reputation=reputation, include=include)
        assert repr(got) == repr(want)
        assert repr(got.pairs) == repr(want.pairs)   # evidence included
        assert got.operations == want.operations
        assert got.examined_nodes == want.examined_nodes
