"""SuspectGraph construction, queries, and the pair-equivalence anchor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formula import formula2_bounds
from repro.core.online import OnlineCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.ratings.ledger import RatingLedger
from repro.rings import SuspectGraph
from repro.rings.graph import _band_score
from repro.util.counters import OpCounter

from tests.conftest import build_planted_matrix

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


@pytest.fixture
def planted_graph(planted_matrix):
    return SuspectGraph.from_matrix(planted_matrix, thresholds=THRESHOLDS)


class TestConstruction:
    def test_planted_pairs_become_mutual_edges(self, planted_graph):
        assert planted_graph.mutual_pairs() == [(4, 5), (6, 7)]

    def test_edges_are_directed_and_sorted(self, planted_graph):
        edges = planted_graph.edges()
        keys = [(e.rater, e.target) for e in edges]
        assert keys == sorted(keys)
        assert {(4, 5), (5, 4), (6, 7), (7, 6)} <= set(keys)

    def test_edge_lookup(self, planted_graph):
        edge = planted_graph.edge(4, 5)
        assert edge is not None
        assert edge.frequency >= THRESHOLDS.t_n
        assert edge.positive_fraction >= THRESHOLDS.t_a
        assert planted_graph.edge(0, 1) is None

    def test_band_score_in_unit_interval(self, planted_graph):
        for edge in planted_graph.edges():
            assert 0.0 <= edge.band_score <= 1.0

    def test_honest_matrix_yields_empty_graph(self):
        matrix = build_planted_matrix(pairs=())
        graph = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS)
        assert graph.num_edges == 0
        assert graph.nodes() == []
        assert graph.components() == []

    def test_edge_floor_admits_diluted_edges(self):
        # Pair mass below T_N = 40; fewer critics so members stay above
        # the reputation gate despite the smaller boost.
        matrix = build_planted_matrix(pair_ratings=25, critics_per_colluder=4,
                                      critic_ratings=2)
        strict = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS,
                                          edge_floor=1.0)
        relaxed = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS,
                                           edge_floor=0.5)
        assert strict.num_edges == 0
        # Below T_N the legs are candidate edges, not screened verdicts.
        assert relaxed.mutual_pairs() == []
        for a, b in ((4, 5), (6, 7)):
            assert relaxed.edge(a, b) is not None
            assert relaxed.edge(b, a) is not None
        assert [4, 5] in relaxed.components()

    def test_include_out_of_range_rejected(self, planted_matrix):
        with pytest.raises(DetectionError):
            SuspectGraph.from_matrix(planted_matrix, thresholds=THRESHOLDS,
                                     include=[planted_matrix.n])

    def test_ops_charged(self, planted_matrix):
        ops = OpCounter()
        SuspectGraph.from_matrix(planted_matrix, thresholds=THRESHOLDS,
                                 ops=ops)
        assert ops.snapshot().get("edge_eval", 0) > 0


class TestQueries:
    def test_adjacency_is_undirected_view(self, planted_graph):
        adjacency = planted_graph.adjacency()
        assert 5 in adjacency[4] and 4 in adjacency[5]

    def test_components_partition_nodes(self, planted_graph):
        components = planted_graph.components()
        flat = [node for comp in components for node in comp]
        assert sorted(flat) == planted_graph.nodes()
        assert len(set(flat)) == len(flat)
        assert [4, 5] in components and [6, 7] in components

    def test_to_dict_shape(self, planted_graph):
        doc = planted_graph.to_dict()
        assert doc["n"] == 40
        assert doc["edge_floor"] == 0.5
        assert len(doc["edges"]) == planted_graph.num_edges
        assert doc["mutual_pairs"] == [[4, 5], [6, 7]]
        for entry in doc["edges"]:
            assert {"rater", "target", "frequency", "positive",
                    "screened", "band_score"} <= set(entry)


class TestPairEquivalence:
    """Mutual screened edges must equal the batch pair detector's set."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_planted_workloads(self, seed):
        matrix = build_planted_matrix(seed=seed)
        batch = OptimizedCollusionDetector(THRESHOLDS).detect(matrix)
        graph = SuspectGraph.from_matrix(matrix, thresholds=THRESHOLDS)
        assert frozenset(graph.mutual_pairs()) == batch.pair_set()

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_noise_workloads(self, seed):
        gen = np.random.default_rng(seed)
        ledger = RatingLedger(16)
        raters = gen.integers(0, 16, size=400)
        targets = gen.integers(0, 16, size=400)
        keep = raters != targets
        raters, targets = raters[keep], targets[keep]
        values = gen.choice([-1, 1], size=raters.size)
        ledger.extend(raters, targets, values, np.zeros(raters.size))
        matrix = ledger.to_matrix()
        thresholds = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=12)
        batch = OptimizedCollusionDetector(thresholds).detect(matrix)
        graph = SuspectGraph.from_matrix(matrix, thresholds=thresholds)
        assert frozenset(graph.mutual_pairs()) == batch.pair_set()


class TestBandScore:
    def test_outside_band_scores_zero(self):
        assert _band_score(10.0, 20.0, 40.0) == 0.0
        assert _band_score(40.0, 20.0, 40.0) == 0.0  # upper is exclusive

    def test_degenerate_band_scores_zero(self):
        assert _band_score(5.0, 10.0, 10.0) == 0.0
        assert _band_score(5.0, 10.0, 4.0) == 0.0

    def test_deeper_into_band_scores_higher(self):
        shallow = _band_score(38.0, 20.0, 40.0)
        deep = _band_score(21.0, 20.0, 40.0)
        assert 0.0 < shallow < deep <= 1.0


def streaming_graph(matrix, thresholds, reputation, include, edge_floor,
                    multi_booster_exclusion):
    """The graph ``from_matrix`` built by streaming: every matrix entry
    through ``OnlineCollusionDetector.observe``, its ``period_candidates``
    halves into ``SuspectGraph.build``, one counter charged throughout."""
    ops = OpCounter()
    detector = OnlineCollusionDetector(
        matrix.n, thresholds, ops=ops,
        multi_booster_exclusion=multi_booster_exclusion)
    targets, raters, eff, pos = (a.tolist() for a in matrix.entries(effective=True))
    for t, r, cnt, p in zip(targets, raters, eff, pos):
        if p:
            detector.observe(r, t, 1, count=p)
        if cnt - p:
            detector.observe(r, t, -1, count=cnt - p)
    gate = (matrix.reputation_sum().astype(float) if reputation is None
            else np.asarray(reputation, dtype=float))
    include_ids = None if include is None else np.asarray(include, dtype=np.int64)
    halves = detector.period_candidates(reputation=gate, include=include_ids)
    node_eff = matrix.received_effective().astype(np.int64)
    node_pos = matrix.received_positive().astype(np.int64)
    graph = SuspectGraph.build(
        matrix.n, thresholds, halves, zip(targets, raters, eff, pos), gate,
        node_eff, node_pos, edge_floor=edge_floor, include=include_ids, ops=ops)
    return graph, ops.snapshot(), scalar_edges(
        thresholds, halves, zip(targets, raters, eff, pos), gate, node_eff,
        node_pos, edge_floor, include_ids)


def scalar_edges(thresholds, halves, pair_counts, gate, node_eff, node_pos,
                 edge_floor, include):
    """The candidate edges admitted one pair counter at a time, as
    ``to_dict`` lists them."""
    th = thresholds
    high = gate >= th.t_r
    if include is not None:
        high[include] = True
    screened = {(h.rater, h.target) for h in halves}
    edges = []
    for target, rater, eff, pos in pair_counts:
        if (rater == target or eff <= 0 or eff < edge_floor * th.t_n
                or pos < th.t_a * eff or not (high[target] and high[rater])):
            continue
        lower, upper = formula2_bounds(float(node_eff[target]), float(eff),
                                       th.t_a, th.t_b)
        reputation = float(2 * node_pos[target] - node_eff[target])
        edges.append({"rater": rater, "target": target, "frequency": eff,
                      "positive": pos, "screened": (rater, target) in screened,
                      "band_score": _band_score(reputation, lower, upper)})
    return sorted(edges, key=lambda e: (e["rater"], e["target"]))


@st.composite
def graph_inputs(draw):
    """A planted period matrix plus random extra ratings, and a random
    reputation gate, include set, edge floor and booster mode."""
    n = draw(st.integers(12, 30))
    members = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=6,
                            unique=True))
    pairs = tuple(zip(members[0::2], members[1::2]))
    matrix = build_planted_matrix(
        n=n, pairs=pairs,
        pair_ratings=draw(st.integers(1, 30)),
        background=draw(st.integers(0, 300)),
        critics_per_colluder=draw(st.integers(0, min(4, n - len(members)))),
        critic_ratings=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)))
    for rater, target, value, count in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from([-1, 0, 1]), st.integers(1, 25)), max_size=15)):
        if rater != target:
            matrix.add(rater, target, value, count=count)
    t_a = draw(st.sampled_from([0.6, 0.75, 0.9, 1.0]))
    thresholds = DetectionThresholds(
        t_r=draw(st.sampled_from([-5.0, 0.0, 1.0, 8.0])), t_a=t_a,
        t_b=draw(st.sampled_from([0.0, 0.3, 0.5])),
        t_n=draw(st.integers(1, 30)))
    reputation = draw(st.one_of(
        st.none(),
        st.lists(st.floats(-20, 60, allow_nan=False), min_size=n, max_size=n)))
    include = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1),
                                                 max_size=6)))
    edge_floor = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8, 1.0]))
    multi = draw(st.booleans())
    return matrix, thresholds, reputation, include, edge_floor, multi


class TestStreamingEquivalence:
    @given(graph_inputs())
    @settings(max_examples=150, deadline=None)
    def test_from_matrix_equals_streaming_build(self, inputs):
        """The vectorized graph equals the streaming one: same edges,
        screened flags and band-score bits, and the same op charges;
        its edges are the ones a per-counter scan admits."""
        matrix, thresholds, reputation, include, edge_floor, multi = inputs
        ops = OpCounter()
        graph = SuspectGraph.from_matrix(
            matrix, thresholds=thresholds, reputation=reputation,
            include=include, edge_floor=edge_floor,
            multi_booster_exclusion=multi, ops=ops)
        expected, expected_ops, edges = streaming_graph(
            matrix, thresholds, reputation, include, edge_floor, multi)
        assert graph.to_dict() == expected.to_dict()
        assert graph.to_dict()["edges"] == edges
        assert ops.snapshot() == expected_ops
