"""Tests for reputation-manager churn (join/leave with state migration)."""

import numpy as np
import pytest

from repro.core.decentralized import DecentralizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.errors import ConfigurationError, DHTError
from repro.reputation.decentralized import DecentralizedReputationSystem

from tests.conftest import build_planted_matrix, matrix_runs


def loaded_system(n=40, managers=4, seed=0):
    """A deployment pre-loaded with the planted-pair workload."""
    matrix = build_planted_matrix(n=n, seed=seed)
    system = DecentralizedReputationSystem(
        n, manager_addresses=[f"m{k}" for k in range(managers)]
    )
    for rater, target, value, count in matrix_runs(matrix):
        for _ in range(count):
            system.submit_rating(rater, target, value)
    system.update()
    return system, matrix


THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


class TestAddManager:
    def test_global_state_preserved(self):
        system, matrix = loaded_system()
        before = system.global_matrix()
        system.add_manager("newcomer")
        assert system.global_matrix() == before

    def test_partition_still_total(self):
        system, _ = loaded_system()
        system.add_manager("newcomer")
        responsible = sorted(
            node for shard in system.shards.values()
            for node in shard.responsible
        )
        assert responsible == list(range(system.n))

    def test_new_manager_present(self):
        system, _ = loaded_system()
        new_id = system.add_manager("newcomer")
        assert new_id in system.shards

    def test_published_values_survive(self):
        system, _ = loaded_system()
        before = system.published_vector()
        system.add_manager("newcomer")
        np.testing.assert_array_equal(system.published_vector(), before)

    def test_detection_invariant_after_join(self):
        system, _ = loaded_system()
        base = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        system.add_manager("newcomer")
        after = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        assert base.pair_set() == after.pair_set() == {(4, 5), (6, 7)}

    def test_ratings_route_to_new_owner(self):
        system, _ = loaded_system()
        system.add_manager("newcomer")
        system.submit_rating(0, 7, 1)
        shard = system.shard_of(7)
        assert (shard.ledger.targets == 7).sum() > 0


class TestRemoveManager:
    def test_global_state_preserved(self):
        system, _ = loaded_system()
        before = system.global_matrix()
        victim = sorted(system.shards)[0]
        system.remove_manager(victim)
        assert system.global_matrix() == before

    def test_partition_still_total(self):
        system, _ = loaded_system()
        system.remove_manager(sorted(system.shards)[1])
        responsible = sorted(
            node for shard in system.shards.values()
            for node in shard.responsible
        )
        assert responsible == list(range(system.n))

    def test_detection_invariant_after_leave(self):
        system, _ = loaded_system()
        system.remove_manager(sorted(system.shards)[0])
        report = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        assert report.pair_set() == {(4, 5), (6, 7)}

    def test_last_manager_protected(self):
        system, _ = loaded_system(managers=1)
        only = next(iter(system.shards))
        with pytest.raises(ConfigurationError):
            system.remove_manager(only)

    def test_unknown_manager_rejected(self):
        system, _ = loaded_system()
        with pytest.raises(DHTError):
            system.remove_manager(123456789)

    def test_churn_sequence(self):
        """Repeated joins and leaves never lose or duplicate state."""
        system, _ = loaded_system()
        total_before = int(system.global_matrix().received_total().sum())
        joined = [system.add_manager(f"extra-{k}") for k in range(3)]
        for mid in joined[:2]:
            system.remove_manager(mid)
        system.add_manager("late")
        assert int(system.global_matrix().received_total().sum()) == total_before
        report = DecentralizedCollusionDetector(system, THRESHOLDS).detect()
        assert report.pair_set() == {(4, 5), (6, 7)}
