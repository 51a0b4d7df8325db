"""Shared fixtures: deterministic RNGs, planted matrices, small sim configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.thresholds import DetectionThresholds
from repro.p2p.simulator import SimulationConfig
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix


@pytest.fixture
def rng():
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


def build_planted_matrix(
    n: int = 40,
    pairs=((4, 5), (6, 7)),
    pair_ratings: int = 60,
    background: int = 600,
    background_positive: float = 0.8,
    critics_per_colluder: int = 8,
    critic_ratings: int = 4,
    seed: int = 7,
) -> RatingMatrix:
    """A period matrix with honest background + mutual-positive pairs.

    Pair members receive negative ratings from random critics so the
    paper's C2 condition (outsiders rate colluders low) holds.
    """
    gen = np.random.default_rng(seed)
    matrix = RatingMatrix(n)
    members = {v for p in pairs for v in p}
    raters = gen.integers(0, n, size=background)
    targets = gen.integers(0, n, size=background)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(gen.random(raters.size) < background_positive, 1, -1)
    matrix.add_events(raters, targets, values)
    for a, b in pairs:
        matrix.add(a, b, 1, count=pair_ratings)
        matrix.add(b, a, 1, count=pair_ratings)
        for member in (a, b):
            critics = gen.choice(
                [v for v in range(n) if v not in members],
                size=critics_per_colluder, replace=False,
            )
            for c in critics:
                matrix.add(int(c), member, -1, count=critic_ratings)
    return matrix


@pytest.fixture
def planted_matrix():
    """Default planted matrix: pairs (4,5) and (6,7) in a 40-node universe."""
    return build_planted_matrix()


@pytest.fixture
def sim_thresholds():
    """Thresholds matched to :func:`build_planted_matrix` workloads."""
    return DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


@pytest.fixture
def small_sim_config():
    """A scaled-down paper configuration that runs in well under a second."""
    return SimulationConfig(
        n_nodes=60,
        n_categories=8,
        sim_cycles=4,
        query_cycles=5,
        capacity=50,
        pretrusted_ids=(1, 2, 3),
        colluder_ids=(4, 5, 6, 7),
        seed=11,
    )


def matrix_runs(matrix: RatingMatrix):
    """Expand a count matrix into ``(rater, target, value, count)`` runs.

    One run per nonzero (entry, value): positives, then negatives, then
    neutrals, entries in ``(target, rater)`` order.
    """
    t, r, cnt, pos, neg = (a.tolist() for a in matrix.all_entries())
    for target, rater, total, p, q in zip(t, r, cnt, pos, neg):
        for value, count in ((1, p), (-1, q), (0, total - p - q)):
            if count:
                yield rater, target, value, count


def ledger_from_matrix(matrix: RatingMatrix, time: float = 0.0) -> RatingLedger:
    """Expand a count matrix back into individual ledger events."""
    ledger = RatingLedger(matrix.n)
    for rater, target, value, count in matrix_runs(matrix):
        for _ in range(count):
            ledger.add(rater, target, value, time)
    return ledger
