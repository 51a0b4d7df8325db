"""Seed-deterministic benchmark inputs: rating periods and JSONL traces.

Every period is uniform random background traffic (80% positive, the
shape of :func:`repro.bench.loadgen.make_workload`) plus planted
colluders: mutual-positive pairs and all-to-all rings, each member also
bombed by a few honest critics so the paper's C2 condition (outsiders
rate colluders low) holds.  Only ``(seed, period)`` decides a period's
events, so two runs with one seed send byte-identical requests.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

Events = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Plan:
    """Who colludes, and how much traffic one period carries."""

    n: int
    background: int
    pairs: Tuple[Tuple[int, int], ...]
    rings: Tuple[Tuple[int, ...], ...]
    #: Planted pairs are spread over this many consecutive periods
    #: (period ``p`` plants every ``rotate``-th pair), so a large plant
    #: still gives short periods.  Every period plants every ring.
    rotate: int = 1
    pair_ratings: int = 24
    critics: int = 4
    critic_ratings: int = 3

    @property
    def colluders(self) -> Tuple[int, ...]:
        members = {v for pair in self.pairs for v in pair}
        members.update(v for ring in self.rings for v in ring)
        return tuple(sorted(members))


def make_plan(seed: int, n: int, background: int, pairs: int,
              ring_sizes: Sequence[int] = (), rotate: int = 1,
              critics: int = 4, critic_ratings: int = 3) -> Plan:
    """Choose the planted members from ``seed``; everything else is fixed."""
    rng = np.random.default_rng([seed, 0])
    need = 2 * pairs + sum(ring_sizes)
    if need + critics > n:
        raise ValueError(f"n={n} is too small for {need} colluders")
    order = [int(v) for v in rng.permutation(n)[:need]]
    planted_pairs = tuple(
        (min(order[2 * i], order[2 * i + 1]), max(order[2 * i], order[2 * i + 1]))
        for i in range(pairs)
    )
    rings: List[Tuple[int, ...]] = []
    cursor = 2 * pairs
    for size in ring_sizes:
        rings.append(tuple(sorted(order[cursor:cursor + size])))
        cursor += size
    return Plan(n=n, background=background, pairs=planted_pairs,
                rings=tuple(rings), rotate=rotate, critics=critics,
                critic_ratings=critic_ratings)


def planted_in(plan: Plan, period: int) -> Tuple[List[Tuple[int, int]],
                                                  List[Tuple[int, ...]]]:
    """The pairs and rings period ``period`` plants."""
    phase = period % plan.rotate
    pairs = [p for i, p in enumerate(plan.pairs) if i % plan.rotate == phase]
    return pairs, list(plan.rings)


def period_events(plan: Plan, seed: int, period: int) -> Events:
    """One period's ``(raters, targets, values)``, shuffled."""
    rng = np.random.default_rng([seed, 1, period])
    n = plan.n
    raters = rng.integers(0, n, size=plan.background)
    targets = rng.integers(0, n, size=plan.background)
    keep = raters != targets
    raters, targets = raters[keep], targets[keep]
    values = np.where(rng.random(raters.size) < 0.8, 1, -1)
    extra_r: List[int] = []
    extra_t: List[int] = []
    extra_v: List[int] = []
    colluders = set(plan.colluders)
    honest = np.array([v for v in range(n) if v not in colluders])
    pairs, rings = planted_in(plan, period)
    groups: List[Sequence[int]] = [list(p) for p in pairs] + [list(r) for r in rings]
    for members in groups:
        for a in members:
            for b in members:
                if a != b:
                    extra_r += [a] * plan.pair_ratings
                    extra_t += [b] * plan.pair_ratings
                    extra_v += [1] * plan.pair_ratings
            for critic in rng.choice(honest, size=plan.critics, replace=False):
                extra_r += [int(critic)] * plan.critic_ratings
                extra_t += [a] * plan.critic_ratings
                extra_v += [-1] * plan.critic_ratings
    raters = np.concatenate([raters, np.array(extra_r, dtype=np.int64)])
    targets = np.concatenate([targets, np.array(extra_t, dtype=np.int64)])
    values = np.concatenate([values, np.array(extra_v, dtype=np.int64)])
    order = rng.permutation(raters.size)
    return (raters[order].astype(np.int64), targets[order].astype(np.int64),
            values[order].astype(np.int64))


def batches(events: Events, size: int) -> Iterator[Events]:
    """Consecutive ``size``-rating slices of one period."""
    raters, targets, values = events
    for start in range(0, raters.size, size):
        yield (raters[start:start + size], targets[start:start + size],
               values[start:start + size])


def ratings_body(events: Events) -> bytes:
    """The ``POST /ratings`` JSON body for one batch."""
    raters, targets, values = events
    return json.dumps({"ratings": [
        {"rater": r, "target": t, "value": v}
        for r, t, v in zip(raters.tolist(), targets.tolist(), values.tolist())
    ]}).encode()


def write_trace(path: pathlib.Path, events: Events) -> int:
    """Write one period as a JSONL trace, one rating per line."""
    raters, targets, values = events
    with path.open("w") as handle:
        for i, (r, t, v) in enumerate(zip(raters.tolist(), targets.tolist(),
                                          values.tolist())):
            handle.write(f'{{"rater": {r}, "target": {t}, "value": {v}, '
                         f'"time": {float(i)}}}\n')
    return int(raters.size)
