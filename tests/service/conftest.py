"""Shared helpers for the service tests: event traces and services."""

from __future__ import annotations

import json
import threading
from typing import List

import numpy as np
import pytest

from repro.core.thresholds import DetectionThresholds
from repro.ratings.events import Rating
from repro.ratings.matrix import RatingMatrix
from repro.service import (DetectionService, ProcessDetectionService,
                           ServiceConfig)

from tests.conftest import build_planted_matrix, matrix_runs

SERVICE_THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.7, t_n=40)


def matrix_to_events(matrix: RatingMatrix, seed: int = 3) -> List[Rating]:
    """Flatten a count matrix into a shuffled stream of Rating events."""
    events: List[Rating] = []
    for rater, target, value, count in matrix_runs(matrix):
        events.extend(Rating(rater, target, value) for _ in range(count))
    np.random.default_rng(seed).shuffle(events)
    return [
        Rating(e.rater, e.target, e.value, time=float(i))
        for i, e in enumerate(events)
    ]


def events_to_matrix(events: List[Rating], n: int = 40) -> RatingMatrix:
    """Fold an event stream into the batch detector's count matrix."""
    matrix = RatingMatrix(n)
    for event in events:
        matrix.add(event.rater, event.target, event.value)
    return matrix


def submit_all(service: DetectionService, events: List[Rating],
               batch_size: int = 25) -> int:
    """Feed an event stream through submit() in fixed-size batches."""
    accepted = 0
    for start in range(0, len(events), batch_size):
        accepted += service.submit(events[start:start + batch_size])
    return accepted


def shard_states(service: DetectionService) -> str:
    """Canonical JSON of every shard's exported state (byte-comparable)."""
    return json.dumps(service.export_shard_states(), sort_keys=True)


def park_thread_worker(worker):
    """Block a thread-transport shard on a command until released.

    Returns ``(release, token)``: set ``release``, then collect the
    command with ``worker.finish_call(token)``.
    """
    release, parked = threading.Event(), threading.Event()
    dispatch = worker.state.dispatch

    def parking(name, args):
        if name == "park":
            parked.set()
            release.wait(5)
            return None
        return dispatch(name, args)

    worker.state.dispatch = parking
    token = worker.start_call("park")
    assert parked.wait(5)
    return release, token


@pytest.fixture(params=[DetectionService, ProcessDetectionService],
                ids=["thread", "process"])
def service_cls(request):
    """Each shard transport's coordinator, for transport-agnostic tests."""
    return request.param


@pytest.fixture
def planted_events(planted_matrix):
    """The standard planted-collusion matrix as a shuffled event stream."""
    return matrix_to_events(planted_matrix)


@pytest.fixture
def service_config(tmp_path):
    """Durable 3-shard config over the planted universe (n=40)."""
    return ServiceConfig(
        n=40,
        num_shards=3,
        thresholds=SERVICE_THRESHOLDS,
        data_dir=tmp_path / "svc",
        queue_capacity=64,
    )


@pytest.fixture
def ephemeral_config():
    """Non-durable 3-shard config (no WAL, no snapshots)."""
    return ServiceConfig(n=40, num_shards=3, thresholds=SERVICE_THRESHOLDS)


__all__ = [
    "SERVICE_THRESHOLDS",
    "build_planted_matrix",
    "matrix_to_events",
    "events_to_matrix",
    "submit_all",
    "shard_states",
    "park_thread_worker",
]
