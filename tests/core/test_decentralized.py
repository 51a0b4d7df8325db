"""Tests for the decentralized detection protocol."""

import numpy as np
import pytest

from repro.core.decentralized import DecentralizedCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.basic import BasicCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import DetectionError
from repro.reputation.decentralized import DecentralizedReputationSystem

from tests.conftest import build_planted_matrix, matrix_runs


def feed_system(matrix, managers=4):
    """Load a count matrix into a fresh decentralized deployment."""
    system = DecentralizedReputationSystem(
        matrix.n, manager_addresses=[f"m{k}" for k in range(managers)]
    )
    for rater, target, value, count in matrix_runs(matrix):
        for _ in range(count):
            system.submit_rating(rater, target, value)
    system.update()
    return system


@pytest.fixture(scope="module")
def deployed_system():
    return feed_system(build_planted_matrix())


THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


class TestProtocol:
    def test_finds_planted_pairs(self, deployed_system):
        detector = DecentralizedCollusionDetector(deployed_system, THRESHOLDS)
        report = detector.detect()
        assert report.pair_set() == {(4, 5), (6, 7)}

    def test_matches_centralized_optimized(self, deployed_system):
        decentralized = DecentralizedCollusionDetector(
            deployed_system, THRESHOLDS, method="optimized"
        ).detect()
        central = OptimizedCollusionDetector(THRESHOLDS).detect(
            deployed_system.global_matrix()
        )
        assert decentralized.pair_set() == central.pair_set()

    def test_matches_centralized_basic(self, deployed_system):
        decentralized = DecentralizedCollusionDetector(
            deployed_system, THRESHOLDS, method="basic"
        ).detect()
        central = BasicCollusionDetector(THRESHOLDS).detect(
            deployed_system.global_matrix()
        )
        assert decentralized.pair_set() == central.pair_set()

    def test_cross_manager_messages_counted(self, deployed_system):
        detector = DecentralizedCollusionDetector(deployed_system, THRESHOLDS)
        report = detector.detect()
        # At least one planted pair spans two shards in this deployment
        # (4 managers, 40 nodes); if so messages must be > 0.
        spans = any(
            deployed_system.manager_of(a) != deployed_system.manager_of(b)
            for a, b in [(4, 5), (6, 7)]
        )
        if spans:
            assert report.messages > 0
        by_kind = deployed_system.messages.by_kind()
        if spans:
            assert by_kind.get("collusion_check", 0) >= 1
            assert by_kind.get("collusion_check") == by_kind.get("collusion_response")

    def test_single_manager_no_protocol_messages(self):
        system = feed_system(build_planted_matrix(), managers=1)
        detector = DecentralizedCollusionDetector(system, THRESHOLDS)
        report = detector.detect()
        assert report.pair_set() == {(4, 5), (6, 7)}
        assert report.messages == 0

    def test_explicit_reputation_vector(self, deployed_system):
        rep = np.zeros(deployed_system.n)
        rep[[4, 5]] = 100.0
        detector = DecentralizedCollusionDetector(deployed_system, THRESHOLDS)
        report = detector.detect(reputation=rep)
        assert report.pair_set() == {(4, 5)}

    def test_bad_reputation_shape(self, deployed_system):
        detector = DecentralizedCollusionDetector(deployed_system, THRESHOLDS)
        with pytest.raises(DetectionError):
            detector.detect(reputation=np.zeros(3))

    def test_unknown_method_rejected(self, deployed_system):
        with pytest.raises(DetectionError):
            DecentralizedCollusionDetector(deployed_system, THRESHOLDS,
                                           method="quantum")

    def test_examined_nodes_counted(self, deployed_system):
        report = DecentralizedCollusionDetector(deployed_system, THRESHOLDS).detect()
        assert report.examined_nodes > 0

    def test_no_collusion_clean_report(self):
        system = feed_system(build_planted_matrix(pairs=()))
        report = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        assert len(report) == 0


class TestManagerShardingInvariance:
    @pytest.mark.parametrize("managers", [1, 2, 3, 6, 10])
    def test_detection_invariant_to_shard_count(self, managers):
        """The number of managers never changes what is detected."""
        matrix = build_planted_matrix()
        system = feed_system(matrix, managers=managers)
        report = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        assert report.pair_set() == {(4, 5), (6, 7)}
