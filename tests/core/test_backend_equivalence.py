"""Dense and sparse backends must be *observationally identical*.

The tentpole guarantee of the backend layer: for any workload, running
either detector on a sparse matrix produces a byte-identical
:class:`DetectionReport` to running it on the dense original — same
pairs, same evidence fields (frozen dataclass equality covers every
float), same operation totals, same examined-node count.  Scenarios
are randomized collusion workloads assembled from the
:mod:`repro.p2p.attacks` strategies layered over background noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import BasicCollusionDetector
from repro.core.optimized import OptimizedCollusionDetector
from repro.core.thresholds import DetectionThresholds
from repro.p2p.attacks import (
    OscillatingCollusion,
    SlanderStrategy,
    SybilRingStrategy,
)
from repro.p2p.collusion import PairCollusion
from repro.ratings.ledger import RatingLedger

N = 24

THRESHOLDS = DetectionThresholds(t_r=1.0, t_a=0.9, t_b=0.5, t_n=15)


@st.composite
def attack_scenario(draw):
    """A ledger mixing one attack strategy with random background noise."""
    ledger = RatingLedger(N)

    strategy_kind = draw(st.sampled_from(
        ["pair", "oscillating", "sybil", "slander", "none"]
    ))
    if strategy_kind == "pair":
        strategy = PairCollusion(
            pairs=[(1, 2), (4, 5)],
            rate_count=draw(st.integers(3, 10)),
        )
    elif strategy_kind == "oscillating":
        strategy = OscillatingCollusion(
            pairs=[(1, 2)],
            rate_count=draw(st.integers(3, 10)),
            period_on_off=draw(st.integers(1, 3)),
        )
    elif strategy_kind == "sybil":
        strategy = SybilRingStrategy(
            ring=[3, 7, 11, 13],
            rate_count=draw(st.integers(3, 10)),
            mutual=draw(st.booleans()),
        )
    elif strategy_kind == "slander":
        strategy = SlanderStrategy(
            attacks=[(6, 1), (8, 2)],
            rate_count=draw(st.integers(3, 10)),
        )
    else:
        strategy = None

    cycles = draw(st.integers(1, 4))
    for cycle in range(cycles):
        if strategy is not None:
            strategy.act(ledger, time=float(cycle))
        noise = draw(st.integers(0, 30))
        for _ in range(noise):
            r = draw(st.integers(0, N - 1))
            t = draw(st.integers(0, N - 1))
            if r == t:
                continue
            ledger.add(r, t, draw(st.sampled_from([-1, 0, 1])),
                       time=float(cycle))
    return ledger


def assert_identical_reports(detector_cls, ledger, **kwargs):
    dense = ledger.to_matrix(backend="dense")
    sparse = ledger.to_matrix(backend="sparse")
    assert dense == sparse

    report_d = detector_cls(THRESHOLDS, **kwargs).detect(dense)
    report_s = detector_cls(THRESHOLDS, **kwargs).detect(sparse)

    # Every evidence field bit-for-bit (ints and float fractions alike).
    # Compared by repr, not ==: ``b`` is NaN when the target has no other
    # raters, and NaN != NaN would fail two identical reports.
    assert repr(report_d.pairs) == repr(report_s.pairs)
    assert report_d.operations == report_s.operations
    assert report_d.examined_nodes == report_s.examined_nodes
    assert report_d.method == report_s.method
    return report_d


class TestDetectionBackendEquivalence:
    @pytest.mark.parametrize("multi", [True, False])
    @given(ledger=attack_scenario())
    @settings(max_examples=60, deadline=None)
    def test_optimized_identical(self, ledger, multi):
        assert_identical_reports(
            OptimizedCollusionDetector, ledger,
            multi_booster_exclusion=multi,
        )

    @pytest.mark.parametrize("multi", [True, False])
    @given(ledger=attack_scenario())
    @settings(max_examples=60, deadline=None)
    def test_basic_identical(self, ledger, multi):
        assert_identical_reports(
            BasicCollusionDetector, ledger,
            multi_booster_exclusion=multi,
        )

    @given(ledger=attack_scenario())
    @settings(max_examples=30, deadline=None)
    def test_basic_raw_counts_identical(self, ledger):
        """The neutral-inclusive count plane also agrees across backends."""
        assert_identical_reports(
            BasicCollusionDetector, ledger,
            use_effective_counts=False,
        )

    @given(ledger=attack_scenario())
    @settings(max_examples=30, deadline=None)
    def test_reputation_gate_identical(self, ledger):
        """An external reputation gate doesn't break backend parity."""
        rng = np.random.default_rng(0)
        reputation = rng.integers(-5, 30, size=N).astype(float)
        dense = ledger.to_matrix(backend="dense")
        sparse = ledger.to_matrix(backend="sparse")
        for cls in (BasicCollusionDetector, OptimizedCollusionDetector):
            rd = cls(THRESHOLDS).detect(dense, reputation=reputation,
                                        include=np.array([1, 2]))
            rs = cls(THRESHOLDS).detect(sparse, reputation=reputation,
                                        include=np.array([1, 2]))
            assert repr(rd.pairs) == repr(rs.pairs)  # NaN-safe, as above
            assert rd.operations == rs.operations

    def test_pair_collusion_detected_on_both(self):
        """Sanity: the equivalence is not vacuous — pairs do get flagged."""
        ledger = RatingLedger(N)
        strategy = PairCollusion(pairs=[(1, 2)], rate_count=10)
        for cycle in range(3):
            strategy.act(ledger, time=float(cycle))
        # background keeps the outside fraction below T_b
        for critic in (6, 7):
            for victim in (1, 2):
                ledger.extend([critic] * 4, [victim] * 4, [-1] * 4)
        report = assert_identical_reports(OptimizedCollusionDetector, ledger)
        assert report.pair_set() == {(1, 2)}
        report_basic = assert_identical_reports(BasicCollusionDetector, ledger)
        assert report_basic.pair_set() == {(1, 2)}
